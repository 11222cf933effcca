// Model calibration constants (DESIGN.md §6).
//
// Every default in the simulator was chosen so the zero-delay absolute
// numbers land near the paper's 2007-era testbed (dual 3.6 GHz Xeons,
// MT25208 DDR HCAs, OFED 1.2, Obsidian Longbow XR):
//
//   * verbs RC WAN peak   ~985 MB/s  (paper: ~980; SDR minus headers)
//   * verbs UD WAN peak   ~967 MB/s  (paper: 967; GRH adds 40 B/pkt)
//   * Longbow pair adds   ~5 us      (paper, Section 3.2.1)
//   * IPoIB-UD stream     ~350 MB/s  (host-stack bound)
//   * IPoIB-RC 64K MTU    ~890 MB/s  (paper: 890)
//   * MPI peak            ~969 MB/s  (paper: 969)
//   * NFS/RDMA LAN        ~1.1 GB/s : WAN 0-delay ratio ~0.7 (paper: -36%)
//
// Change them here, not inline.
#pragma once

#include "ib/verbs.hpp"
#include "ipoib/ipoib.hpp"
#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "nfs/nfs.hpp"
#include "tcp/tcp.hpp"

namespace ibwan::core {

/// Wire delay per kilometre of fiber (paper, Table 1: 5 us/km).
inline constexpr double kDelayUsPerKm = 5.0;

constexpr sim::Duration delay_for_km(double km) {
  return static_cast<sim::Duration>(km * kDelayUsPerKm * 1000.0);
}
constexpr double km_for_delay(sim::Duration d) {
  return static_cast<double>(d) / 1000.0 / kDelayUsPerKm;
}

/// Fabric with the testbed's rates: DDR hosts, SDR WAN, ~5 us Longbows.
inline net::FabricConfig fabric_defaults(int nodes_a, int nodes_b) {
  net::FabricConfig cfg;
  cfg.nodes_a = nodes_a;
  cfg.nodes_b = nodes_b;
  cfg.lan_rate = 2.0;              // DDR: 16 Gb/s data = 2 B/ns
  cfg.host_link_prop = 100;        // cable
  cfg.switch_latency = 200;        // cut-through hop
  cfg.longbow.wan_rate = 1.0;      // SDR: 8 Gb/s data
  cfg.longbow.pipeline_latency = 1'700;
  cfg.longbow.base_propagation = 500;
  return cfg;
}

/// The NFS/RDMA server posts deep chunk-write queues (knfsd keeps many
/// RPCs in flight); its HCA sustains more in-flight messages than the
/// perftest default. 64 x 4 KB chunks keep NFS/RDMA ahead of NFS/IPoIB
/// at 100 us (Figure 13b) while still collapsing at 1 ms (Figure 13c).
inline ib::HcaConfig nfs_server_hca() {
  ib::HcaConfig cfg;
  cfg.rc_max_inflight_msgs = 64;
  return cfg;
}

/// IPoIB datagram mode (2044-byte IP MTU over the 2 KB path MTU).
inline ipoib::IpoibConfig ipoib_ud() { return {}; }

/// IPoIB connected mode with a given IP MTU (2 KB / 16 KB / 64 KB in
/// Figure 7).
inline ipoib::IpoibConfig ipoib_rc(std::uint32_t mtu) {
  ipoib::IpoibConfig cfg;
  cfg.mode = ipoib::Mode::kConnected;
  cfg.mtu = mtu;
  return cfg;
}

/// TCP with a given receive window (Figure 6's -w knob). The era's
/// "default" large window is 1 MB.
inline tcp::TcpConfig tcp_window(std::uint32_t window_bytes = 1 << 20) {
  tcp::TcpConfig cfg;
  cfg.window_bytes = window_bytes;
  return cfg;
}

/// NFS over RDMA: 4 KB chunking (the paper's measured design).
inline nfs::NfsConfig nfs_rdma_defaults() {
  nfs::NfsConfig cfg;
  cfg.chunk_bytes = 4096;
  return cfg;
}

/// NFS over IPoIB: bulk data inline in the TCP stream.
inline nfs::NfsConfig nfs_ipoib_defaults() { return {}; }

/// MVAPICH2-style MPI defaults (8 KB rendezvous threshold).
inline mpi::MpiConfig mpi_defaults() { return {}; }

}  // namespace ibwan::core
