//! Cluster topology bound to a simulation: per-node CPU pools, disks, and
//! NIC directions as `simkit` resources, plus charging helpers.

use crate::params::Params;
use simkit::trace::ResKind;
use simkit::{secs, Event, Latch, ResourceId, Sim};

/// Index of a node in the cluster (0-based).
pub type NodeId = usize;

/// Resource handles for one node.
#[derive(Clone, Debug)]
pub struct NodeRes {
    /// k-server CPU pool (k = hyper-threaded cores).
    pub cpu: ResourceId,
    /// One resource per data disk.
    pub disks: Vec<ResourceId>,
    /// Outbound NIC direction.
    pub nic_send: ResourceId,
    /// Inbound NIC direction.
    pub nic_recv: ResourceId,
}

/// A cluster's resources registered with a simulation.
pub struct Cluster {
    pub params: Params,
    pub nodes: Vec<NodeRes>,
}

impl Cluster {
    /// Register all node resources with `sim`.
    pub fn build<W: 'static>(sim: &mut Sim<W>, params: Params) -> Cluster {
        let nodes = (0..params.nodes)
            .map(|n| NodeRes {
                cpu: sim.add_resource_kind(
                    format!("node{n}.cpu"),
                    ResKind::Cpu,
                    params.cores_per_node,
                ),
                disks: (0..params.disks_per_node)
                    .map(|d| sim.add_resource_kind(format!("node{n}.disk{d}"), ResKind::Disk, 1))
                    .collect(),
                nic_send: sim.add_resource_kind(format!("node{n}.nic_tx"), ResKind::Net, 1),
                nic_recv: sim.add_resource_kind(format!("node{n}.nic_rx"), ResKind::Net, 1),
            })
            .collect();
        Cluster { params, nodes }
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Charge `cpu_secs` of one core on `node`.
    pub fn cpu<W: 'static>(&self, sim: &mut Sim<W>, node: NodeId, cpu_secs: f64, done: Event<W>) {
        sim.request(self.nodes[node].cpu, secs(cpu_secs), done);
    }

    /// Sequential read of `bytes` from one disk of `node`.
    pub fn disk_read_seq<W: 'static>(
        &self,
        sim: &mut Sim<W>,
        node: NodeId,
        disk: usize,
        bytes: u64,
        done: Event<W>,
    ) {
        let t = bytes as f64 / self.params.disk_seq_bw;
        let d = &self.nodes[node].disks[disk % self.nodes[node].disks.len()];
        sim.request(*d, secs(t), done);
    }

    /// One random I/O of `bytes` (seek + transfer) on one disk of `node`.
    pub fn disk_read_rand<W: 'static>(
        &self,
        sim: &mut Sim<W>,
        node: NodeId,
        disk: usize,
        bytes: u64,
        done: Event<W>,
    ) {
        let t = self.params.disk_seek + bytes as f64 / self.params.disk_seq_bw;
        let d = &self.nodes[node].disks[disk % self.nodes[node].disks.len()];
        sim.request(*d, secs(t), done);
    }

    /// Sequential write (same cost model as a sequential read).
    pub fn disk_write_seq<W: 'static>(
        &self,
        sim: &mut Sim<W>,
        node: NodeId,
        disk: usize,
        bytes: u64,
        done: Event<W>,
    ) {
        self.disk_read_seq(sim, node, disk, bytes, done);
    }

    /// Bulk transfer of `bytes` from `src` to `dst`: occupies the sender's
    /// TX direction and the receiver's RX direction concurrently (each for
    /// `bytes / nic_bw`), completing when both have drained, plus one
    /// propagation latency. A node "transferring" to itself is free.
    pub fn transfer<W: 'static>(
        &self,
        sim: &mut Sim<W>,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        done: Event<W>,
    ) {
        if src == dst {
            sim.schedule_in(0, done);
            return;
        }
        let t = secs(bytes as f64 / self.params.nic_bw + self.params.net_latency);
        let latch = Latch::new(2, done);
        let (l1, l2) = (latch.clone(), latch);
        sim.request(
            self.nodes[src].nic_send,
            t,
            Box::new(move |sim, _| l1.count_down(sim)),
        );
        sim.request(
            self.nodes[dst].nic_recv,
            t,
            Box::new(move |sim, _| l2.count_down(sim)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MB;
    use simkit::SimTime;

    struct W {
        finished: Vec<(&'static str, SimTime)>,
    }

    fn mini_params() -> Params {
        Params {
            nodes: 2,
            cores_per_node: 2,
            disks_per_node: 2,
            ..Params::paper_dss()
        }
    }

    #[test]
    fn disk_seq_read_takes_bytes_over_bw() {
        let mut sim: Sim<W> = Sim::new();
        let mut w = W { finished: vec![] };
        let c = Cluster::build(&mut sim, mini_params());
        c.disk_read_seq(
            &mut sim,
            0,
            0,
            (100.0 * MB as f64) as u64,
            Box::new(|s, w: &mut W| w.finished.push(("read", s.now()))),
        );
        sim.run(&mut w);
        let t = simkit::as_secs(w.finished[0].1);
        assert!(
            (t - 1.0).abs() < 0.01,
            "100MB at 100MB/s should be ~1s, got {t}"
        );
    }

    #[test]
    fn random_read_pays_seek() {
        let mut sim: Sim<W> = Sim::new();
        let mut w = W { finished: vec![] };
        let c = Cluster::build(&mut sim, mini_params());
        c.disk_read_rand(
            &mut sim,
            0,
            0,
            8 * 1024,
            Box::new(|s, w: &mut W| w.finished.push(("read", s.now()))),
        );
        sim.run(&mut w);
        let t = simkit::as_secs(w.finished[0].1);
        assert!(
            t > 0.005 && t < 0.006,
            "8KB random read ≈ seek-dominated, got {t}"
        );
    }

    #[test]
    fn transfer_charges_both_nics_and_is_free_locally() {
        let mut sim: Sim<W> = Sim::new();
        let mut w = W { finished: vec![] };
        let c = Cluster::build(&mut sim, mini_params());
        c.transfer(
            &mut sim,
            0,
            1,
            (110.0 * MB as f64) as u64,
            Box::new(|s, w: &mut W| w.finished.push(("xfer", s.now()))),
        );
        c.transfer(
            &mut sim,
            1,
            1,
            u64::MAX / 4,
            Box::new(|s, w: &mut W| w.finished.push(("local", s.now()))),
        );
        sim.run(&mut w);
        let local = w.finished.iter().find(|(n, _)| *n == "local").unwrap().1;
        assert_eq!(local, 0);
        let xfer = w.finished.iter().find(|(n, _)| *n == "xfer").unwrap().1;
        let t = simkit::as_secs(xfer);
        assert!((t - 1.0).abs() < 0.01, "110MB over 110MB/s ≈ 1s, got {t}");
    }

    #[test]
    fn concurrent_transfers_to_same_receiver_queue() {
        let mut sim: Sim<W> = Sim::new();
        let mut w = W { finished: vec![] };
        let mut p = mini_params();
        p.nodes = 3;
        let c = Cluster::build(&mut sim, p);
        let bytes = (110.0 * MB as f64) as u64;
        for src in 0..2 {
            c.transfer(
                &mut sim,
                src,
                2,
                bytes,
                Box::new(|s, w: &mut W| w.finished.push(("x", s.now()))),
            );
        }
        sim.run(&mut w);
        // Receiver RX is the bottleneck: second transfer completes ~2s.
        let t_last = simkit::as_secs(w.finished.iter().map(|(_, t)| *t).max().unwrap());
        assert!(
            (t_last - 2.0).abs() < 0.05,
            "RX serialization expected, got {t_last}"
        );
    }

    #[test]
    fn cpu_pool_parallelism() {
        let mut sim: Sim<W> = Sim::new();
        let mut w = W { finished: vec![] };
        let c = Cluster::build(&mut sim, mini_params());
        for _ in 0..4 {
            c.cpu(
                &mut sim,
                0,
                1.0,
                Box::new(|s, w: &mut W| w.finished.push(("cpu", s.now()))),
            );
        }
        sim.run(&mut w);
        // 2 cores, 4 × 1s jobs → makespan 2s.
        let t_last = simkit::as_secs(w.finished.iter().map(|(_, t)| *t).max().unwrap());
        assert!((t_last - 2.0).abs() < 0.01);
    }
}
