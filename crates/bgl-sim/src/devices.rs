//! Hardware cost models.
//!
//! These stand in for the paper's testbed (§5.1): Tesla V100-SXM2-32GB GPUs
//! connected by NVLink inside one server, PCIe 3.0 x16 to the host, 96-vCPU
//! graph-store servers, and a 100 Gbps Mellanox CX-5 fabric. The constants
//! are calibrated against figures the paper itself reports:
//!
//! * a GraphSAGE mini-batch computes in ≈ 20 ms on a V100 (§2.2);
//! * one mini-batch carries ≈ 5 MB of subgraph structure + 195 MB of
//!   features (batch 1000, fanout {15,10,5}, Ogbn-products) (§2.2);
//! * a saturated 100 Gbps NIC therefore feeds at most ≈ 60 batches/s (§2.2).

use crate::{secs, SimTime};
use serde::{Deserialize, Serialize};

/// A point-to-point link: fixed per-message latency plus serialization at
/// `bandwidth` bytes/second.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LinkSpec {
    /// One-way latency per message.
    pub latency: SimTime,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

impl LinkSpec {
    /// PCIe 3.0 x16: ~12.8 GB/s effective, ~5 µs submission latency.
    pub fn pcie3_x16() -> Self {
        LinkSpec {
            latency: 5_000,
            bandwidth_bps: 12.8e9,
        }
    }

    /// One NVLink 2.0 lane pair as on V100: ~46 GB/s effective, ~2 µs.
    pub fn nvlink() -> Self {
        LinkSpec {
            latency: 2_000,
            bandwidth_bps: 46.0e9,
        }
    }

    /// 100 Gbps NIC: ~11 GB/s effective after protocol overhead, ~10 µs RTT
    /// contribution each way.
    pub fn nic_100g() -> Self {
        LinkSpec {
            latency: 10_000,
            bandwidth_bps: 11.0e9,
        }
    }

    /// Free intra-process transfer (colocated sampler and store).
    pub fn loopback() -> Self {
        LinkSpec { latency: 200, bandwidth_bps: 80.0e9 }
    }

    /// Time to move `bytes` across this link.
    pub fn transfer_time(&self, bytes: usize) -> SimTime {
        self.latency + secs(bytes as f64 / self.bandwidth_bps)
    }
}

/// GPU device model.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Usable device memory in bytes.
    pub memory_bytes: usize,
    /// Dense f32 throughput in FLOP/s actually achieved by GNN kernels
    /// (well below peak — GNN kernels are memory-bound).
    pub effective_flops: f64,
    /// Device memory bandwidth in bytes/s (bounds gather/scatter kernels).
    pub mem_bandwidth_bps: f64,
    /// Fixed per-kernel launch overhead.
    pub kernel_launch: SimTime,
}

impl GpuSpec {
    /// Tesla V100-SXM2-32GB, with effective GNN throughput calibrated so a
    /// standard GraphSAGE mini-batch lands at ≈ 20 ms (§2.2).
    pub fn v100_32g() -> Self {
        GpuSpec {
            memory_bytes: 32 * (1 << 30),
            effective_flops: 2.0e12,
            mem_bandwidth_bps: 700.0e9,
            kernel_launch: 8_000,
        }
    }

    /// Time to execute a workload of `flops` floating-point operations that
    /// touches `bytes` of device memory: max of the compute and memory
    /// roofline, plus launch overhead.
    pub fn kernel_time(&self, flops: f64, bytes: usize) -> SimTime {
        let compute = flops / self.effective_flops;
        let memory = bytes as f64 / self.mem_bandwidth_bps;
        self.kernel_launch + secs(compute.max(memory))
    }
}

/// The full machine the worker runs on — everything `bgl-exec` needs to
/// turn data volumes into stage times.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MachineSpec {
    pub gpu: GpuSpec,
    pub num_gpus: usize,
    pub pcie: LinkSpec,
    pub nvlink: LinkSpec,
    pub nic: LinkSpec,
    /// Worker-machine CPU cores (paper: 96 vCPU).
    pub worker_cores: usize,
    /// Graph-store-server CPU cores (paper: 96 vCPU).
    pub store_cores: usize,
}

impl MachineSpec {
    /// The paper's GPU server: 8×V100, PCIe 3.0, NVLink, 100 Gbps NIC,
    /// 96 vCPUs on both worker and store machines.
    pub fn paper_testbed() -> Self {
        MachineSpec {
            gpu: GpuSpec::v100_32g(),
            num_gpus: 8,
            pcie: LinkSpec::pcie3_x16(),
            nvlink: LinkSpec::nvlink(),
            nic: LinkSpec::nic_100g(),
            worker_cores: 96,
            store_cores: 96,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{as_secs, MILLISECOND};

    #[test]
    fn nic_feeds_about_60_batches_per_second() {
        // Paper §2.2: 200 MB per batch over 100 Gbps ⇒ ~60 batches/s.
        let nic = LinkSpec::nic_100g();
        let per_batch = nic.transfer_time(200 * (1 << 20));
        let batches_per_sec = 1.0 / as_secs(per_batch);
        assert!(
            (50.0..70.0).contains(&batches_per_sec),
            "got {} batches/s",
            batches_per_sec
        );
    }

    #[test]
    fn graphsage_batch_is_about_20ms() {
        // ~400K nodes/batch, 3 layers, dim ~100→128: ≈ 3e10 flops touching
        // ~600 MB of activations/weights.
        let gpu = GpuSpec::v100_32g();
        let t = gpu.kernel_time(3.0e10, 600 * (1 << 20));
        assert!(
            (10 * MILLISECOND..40 * MILLISECOND).contains(&t),
            "kernel time {} ms",
            t / MILLISECOND
        );
    }

    #[test]
    fn nvlink_beats_pcie() {
        let bytes = 100 << 20;
        assert!(
            LinkSpec::nvlink().transfer_time(bytes)
                < LinkSpec::pcie3_x16().transfer_time(bytes)
        );
    }

    #[test]
    fn zero_bytes_costs_latency_only() {
        let nic = LinkSpec::nic_100g();
        assert_eq!(nic.transfer_time(0), nic.latency);
    }
}
