//! Optimizer result report.

/// What the optimizer did and what it achieved.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OptReport {
    /// Passes actually executed.
    pub passes: usize,
    /// Structure-preserved upsizing operations.
    pub sizing_ops: usize,
    /// Area-recovery downsizing operations.
    pub downsize_ops: usize,
    /// Buffers inserted by the DRV-fixing stage.
    pub drv_buffer_ops: usize,
    /// Buffers inserted on critical paths.
    pub buffer_ops: usize,
    /// Gates decomposed.
    pub decompose_ops: usize,
    /// Repeaters bypassed.
    pub bypass_ops: usize,
    /// Transforms rejected because the target bin was too dense.
    pub blocked_by_density: usize,
    /// Transforms rejected because the target position was inside a macro.
    pub blocked_by_macro: usize,
    /// Sign-off WNS before optimization, ps.
    pub wns_before: f32,
    /// Sign-off WNS after optimization, ps.
    pub wns_after: f32,
    /// Sign-off TNS before optimization, ps.
    pub tns_before: f32,
    /// Sign-off TNS after optimization, ps.
    pub tns_after: f32,
}

impl OptReport {
    /// Total structure-destructing operations.
    pub fn destructive_ops(&self) -> usize {
        self.drv_buffer_ops + self.buffer_ops + self.decompose_ops + self.bypass_ops
    }

    /// Total operations of any kind.
    pub fn total_ops(&self) -> usize {
        self.destructive_ops() + self.sizing_ops + self.downsize_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_op_arithmetic() {
        let r = OptReport {
            sizing_ops: 3,
            buffer_ops: 2,
            decompose_ops: 1,
            bypass_ops: 4,
            ..OptReport::default()
        };
        assert_eq!(r.destructive_ops(), 7);
        assert_eq!(r.total_ops(), 10);
    }
}
