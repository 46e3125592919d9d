//! Cycle-time, latency and energy statistics over simulation traces.

use rt_netlist::NetId;

use crate::agent::Agent;

/// Records the timestamps of rising and falling edges on one net.
///
/// `EdgeRecorder` is an [`Agent`] that produces no stimuli — attach it to a
/// run to collect measurements.
#[derive(Debug, Clone)]
pub struct EdgeRecorder {
    net: NetId,
    rises: Vec<u64>,
    falls: Vec<u64>,
}

impl EdgeRecorder {
    /// Creates a recorder for `net`.
    pub fn new(net: NetId) -> Self {
        EdgeRecorder {
            net,
            rises: Vec::new(),
            falls: Vec::new(),
        }
    }

    /// Timestamps of rising edges.
    pub fn rises(&self) -> &[u64] {
        &self.rises
    }

    /// Timestamps of falling edges.
    pub fn falls(&self) -> &[u64] {
        &self.falls
    }

    /// Cycle statistics from the rise-to-rise periods.
    pub fn cycle_stats(&self) -> Option<CycleStats> {
        CycleStats::from_timestamps(&self.rises)
    }
}

impl Agent for EdgeRecorder {
    fn on_change(&mut self, net: NetId, value: bool, time_ps: u64) -> Vec<(u64, NetId, bool)> {
        if net == self.net {
            if value {
                self.rises.push(time_ps);
            } else {
                self.falls.push(time_ps);
            }
        }
        Vec::new()
    }
}

/// Summary statistics over a series of event periods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleStats {
    /// Number of periods measured.
    pub periods: usize,
    /// Minimum period in ps.
    pub min_ps: u64,
    /// Maximum period in ps.
    pub max_ps: u64,
    /// Mean period in ps (rounded).
    pub mean_ps: u64,
}

impl CycleStats {
    /// Builds stats from a monotone series of event timestamps; needs at
    /// least two events.
    pub fn from_timestamps(stamps: &[u64]) -> Option<CycleStats> {
        if stamps.len() < 2 {
            return None;
        }
        let periods: Vec<u64> = stamps.windows(2).map(|w| w[1] - w[0]).collect();
        let min_ps = *periods.iter().min().expect("nonempty");
        let max_ps = *periods.iter().max().expect("nonempty");
        let sum: u64 = periods.iter().sum();
        Some(CycleStats {
            periods: periods.len(),
            min_ps,
            max_ps,
            mean_ps: sum / periods.len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_stats_basic() {
        let stats = CycleStats::from_timestamps(&[0, 100, 250, 350]).unwrap();
        assert_eq!(stats.periods, 3);
        assert_eq!(stats.min_ps, 100);
        assert_eq!(stats.max_ps, 150);
        assert_eq!(stats.mean_ps, 116);
    }

    #[test]
    fn too_few_events_yield_none() {
        assert!(CycleStats::from_timestamps(&[]).is_none());
        assert!(CycleStats::from_timestamps(&[5]).is_none());
    }
}
