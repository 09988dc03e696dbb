//! A one-entry memo for per-window values that depend only on constants.

/// The last `(key, value)` of a pure `f64 → f64` evaluation.
///
/// The tick recomputes a few values every window whose inputs never
/// change within a simulation (the window length, a monitor's peak
/// frequency). Asking again with the same key, compared bit for bit,
/// returns the stored value; any other key evaluates afresh. The value is
/// therefore always exactly what the evaluation returns for the key.
///
/// # Examples
///
/// ```
/// use p7_types::LastEval;
///
/// let mut memo = LastEval::default();
/// let decay = |dt: f64| 1.0 - (-dt / 20.0).exp();
/// assert_eq!(memo.get_or_eval(0.032, decay), decay(0.032));
/// // Served from the memo: the closure is not called.
/// assert_eq!(memo.get_or_eval(0.032, |_| unreachable!()), decay(0.032));
/// assert_eq!(memo.get_or_eval(1.0, decay), decay(1.0));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct LastEval(Option<(u64, f64)>);

impl LastEval {
    /// `eval(key)`, evaluated only when `key` differs from the last key.
    pub fn get_or_eval(&mut self, key: f64, eval: impl FnOnce(f64) -> f64) -> f64 {
        match self.0 {
            Some((bits, value)) if bits == key.to_bits() => value,
            _ => {
                let value = eval(key);
                self.0 = Some((key.to_bits(), value));
                value
            }
        }
    }
}
