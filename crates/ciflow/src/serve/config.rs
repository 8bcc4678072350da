//! Cluster and run configuration for the serving simulator, with up-front
//! validation.

use super::arrival::ArrivalProcess;
use super::dispatch::DispatchPolicy;
use super::request::RequestClass;
use crate::error::CiflowError;
use rpu::RpuConfig;
use serde::Serialize;

/// The simulated fleet: `num_devices` identical RPUs, each running the same
/// configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterConfig {
    /// Number of RPU devices serving requests (must be positive).
    pub num_devices: usize,
    /// The configuration every device runs (bandwidth, MODOPS, channels,
    /// evk policy, memories).
    pub rpu: RpuConfig,
}

impl ClusterConfig {
    /// A cluster of `num_devices` paper-baseline RPUs.
    pub fn new(num_devices: usize, rpu: RpuConfig) -> Self {
        Self { num_devices, rpu }
    }
}

/// Everything one serving run needs: the cluster, the request mix, the
/// arrival process, the dispatch policy, and the seed that makes the run
/// reproducible.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeConfig {
    /// The simulated fleet.
    pub cluster: ClusterConfig,
    /// The request classes traffic is drawn from.
    pub classes: Vec<RequestClass>,
    /// How requests arrive.
    pub arrival: ArrivalProcess,
    /// How queued requests are matched to idle devices.
    pub policy: DispatchPolicy,
    /// Seed of the arrival process; two runs with equal configs and seeds
    /// produce bit-identical [`ServeReport`](super::ServeReport)s.
    pub seed: u64,
}

impl ServeConfig {
    /// A serving run over `classes` on a `num_devices`-RPU cluster of
    /// paper-baseline devices, FIFO dispatch, seed 0. Adjust fields (or the
    /// embedded [`RpuConfig`]) from there.
    pub fn new(num_devices: usize, classes: Vec<RequestClass>, arrival: ArrivalProcess) -> Self {
        Self {
            cluster: ClusterConfig::new(num_devices, RpuConfig::ciflow_baseline()),
            classes,
            arrival,
            policy: DispatchPolicy::Fifo,
            seed: 0,
        }
    }

    /// Replaces the per-device RPU configuration (builder style).
    pub fn with_rpu(mut self, rpu: RpuConfig) -> Self {
        self.cluster.rpu = rpu;
        self
    }

    /// Replaces the dispatch policy (builder style).
    pub fn with_policy(mut self, policy: DispatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the arrival seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks the configuration for structural problems that would otherwise
    /// surface as panics deep inside the simulation (empty cluster, a
    /// per-device RPU failing [`RpuConfig::validate`], empty mix,
    /// degenerate weights, non-finite or non-positive arrival rate, zero
    /// clients, zero requests). Every rejection names the offending value.
    ///
    /// # Errors
    ///
    /// Returns [`CiflowError::InvalidConfig`] describing the first problem
    /// found.
    pub fn validate(&self) -> Result<(), CiflowError> {
        let invalid = |message: String| Err(CiflowError::InvalidConfig { message });
        if self.cluster.num_devices == 0 {
            return invalid("serving cluster has zero devices".to_string());
        }
        if let Err(message) = self.cluster.rpu.validate() {
            return invalid(format!("per-device {message}"));
        }
        if self.classes.is_empty() {
            return invalid("serving mix has zero request classes".to_string());
        }
        let mut total_weight = 0.0;
        for class in &self.classes {
            if !class.weight.is_finite() || class.weight < 0.0 {
                return invalid(format!(
                    "request class {:?} has invalid weight {}",
                    class.name, class.weight
                ));
            }
            total_weight += class.weight;
        }
        if total_weight <= 0.0 {
            return invalid(format!(
                "request class weights sum to {total_weight}; at least one class \
                 needs positive weight"
            ));
        }
        match self.arrival {
            ArrivalProcess::OpenLoop { rate_rps, .. } => {
                if !rate_rps.is_finite() {
                    return invalid(format!("open-loop arrival rate {rate_rps} is not finite"));
                }
                if rate_rps <= 0.0 {
                    return invalid(format!(
                        "open-loop arrival rate {rate_rps} req/s is not positive"
                    ));
                }
            }
            ArrivalProcess::ClosedLoop { concurrency, .. } => {
                if concurrency == 0 {
                    return invalid("closed-loop concurrency is zero".to_string());
                }
            }
        }
        if self.arrival.requests() == 0 {
            return invalid("arrival process issues zero requests".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::HksBenchmark;

    fn base() -> ServeConfig {
        ServeConfig::new(
            2,
            RequestClass::standard_mix(HksBenchmark::ARK),
            ArrivalProcess::ClosedLoop {
                concurrency: 4,
                requests: 16,
            },
        )
    }

    #[test]
    fn valid_configurations_pass() {
        base().validate().expect("the reference config is valid");
    }

    #[test]
    fn structural_problems_are_reported_not_panicked() {
        let mut zero_devices = base();
        zero_devices.cluster.num_devices = 0;
        let mut no_classes = base();
        no_classes.classes.clear();
        let mut nan_weight = base();
        nan_weight.classes[0].weight = f64::NAN;
        let mut zero_weights = base();
        for class in &mut zero_weights.classes {
            class.weight = 0.0;
        }
        let mut bad_rate = base();
        bad_rate.arrival = ArrivalProcess::OpenLoop {
            rate_rps: f64::INFINITY,
            requests: 10,
        };
        let mut zero_rate = base();
        zero_rate.arrival = ArrivalProcess::OpenLoop {
            rate_rps: 0.0,
            requests: 10,
        };
        let mut zero_concurrency = base();
        zero_concurrency.arrival = ArrivalProcess::ClosedLoop {
            concurrency: 0,
            requests: 10,
        };
        let mut zero_requests = base();
        zero_requests.arrival = ArrivalProcess::ClosedLoop {
            concurrency: 2,
            requests: 0,
        };
        for config in [
            zero_devices,
            no_classes,
            nan_weight,
            zero_weights,
            bad_rate,
            zero_rate,
            zero_concurrency,
            zero_requests,
        ] {
            assert!(
                matches!(config.validate(), Err(CiflowError::InvalidConfig { .. })),
                "config must be rejected: {config:?}"
            );
        }
    }

    fn rejection(config: &ServeConfig) -> String {
        match config.validate() {
            Err(CiflowError::InvalidConfig { message }) => message,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn rejections_name_the_offending_value() {
        let mut zero_devices = base();
        zero_devices.cluster.num_devices = 0;
        assert!(rejection(&zero_devices).contains("zero devices"));

        let mut nan_bandwidth = base();
        nan_bandwidth.cluster.rpu.dram_bandwidth_gbps = f64::NAN;
        assert!(rejection(&nan_bandwidth).contains("DRAM bandwidth NaN"));
        let mut zero_bandwidth = base();
        zero_bandwidth.cluster.rpu.dram_bandwidth_gbps = 0.0;
        assert!(rejection(&zero_bandwidth).contains("DRAM bandwidth 0 GB/s"));

        let mut zero_weights = base();
        for class in &mut zero_weights.classes {
            class.weight = 0.0;
        }
        assert!(rejection(&zero_weights).contains("weights sum to 0"));
        let mut negative_weight = base();
        negative_weight.classes[0].weight = -0.5;
        assert!(rejection(&negative_weight).contains("invalid weight -0.5"));

        let mut infinite_rate = base();
        infinite_rate.arrival = ArrivalProcess::OpenLoop {
            rate_rps: f64::INFINITY,
            requests: 10,
        };
        assert!(rejection(&infinite_rate).contains("rate inf is not finite"));
        let mut negative_rate = base();
        negative_rate.arrival = ArrivalProcess::OpenLoop {
            rate_rps: -3.0,
            requests: 10,
        };
        assert!(rejection(&negative_rate).contains("rate -3 req/s is not positive"));
    }
}
