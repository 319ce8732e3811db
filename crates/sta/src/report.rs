//! STA result container.

use std::collections::BTreeMap;

use rtt_netlist::PinId;

/// Result of one STA run.
///
/// Arrival times are in picoseconds from the launching clock edge. Slack of
/// an endpoint is `clock_period_ps - arrival`.
#[derive(Clone, Debug)]
pub struct StaReport {
    /// Clock period the slacks were computed against, ps.
    pub clock_period_ps: f32,
    /// Worst negative slack (the minimum endpoint slack), ps.
    pub wns: f32,
    /// Total negative slack (sum of negative endpoint slacks), ps.
    pub tns: f32,
    pub(crate) arrival: Vec<f32>,
    pub(crate) required: Vec<f32>,
    pub(crate) endpoints: Vec<(PinId, f32)>,
    pub(crate) net_edge_delay: BTreeMap<(PinId, PinId), f32>,
    pub(crate) cell_edge_delay: BTreeMap<(PinId, PinId), f32>,
}

impl StaReport {
    /// Arrival time at `pin`, or `None` for pins outside the analyzed graph.
    pub fn arrival(&self, pin: PinId) -> Option<f32> {
        self.arrival.get(pin.index()).copied().filter(|a| a.is_finite())
    }

    /// Required time at `pin` (backward-propagated from the clock period),
    /// or `None` for pins outside the graph or with no path to an endpoint.
    pub fn required(&self, pin: PinId) -> Option<f32> {
        self.required.get(pin.index()).copied().filter(|r| r.is_finite())
    }

    /// Slack at `pin`: `required - arrival`. Negative on violating paths.
    pub fn pin_slack(&self, pin: PinId) -> Option<f32> {
        Some(self.required(pin)? - self.arrival(pin)?)
    }

    /// `(endpoint pin, arrival)` pairs — the paper's prediction target.
    pub fn endpoint_arrivals(&self) -> &[(PinId, f32)] {
        &self.endpoints
    }

    /// Delay of the net edge `driver -> sink`, if it exists.
    pub fn net_edge_delay(&self, driver: PinId, sink: PinId) -> Option<f32> {
        self.net_edge_delay.get(&(driver, sink)).copied()
    }

    /// Delay of the cell edge `input -> output`, if it exists.
    pub fn cell_edge_delay(&self, input: PinId, output: PinId) -> Option<f32> {
        self.cell_edge_delay.get(&(input, output)).copied()
    }

    /// The largest endpoint arrival time (critical-path length), ps.
    pub fn max_arrival(&self) -> f32 {
        self.endpoints.iter().map(|&(_, a)| a).fold(0.0, f32::max)
    }
}
