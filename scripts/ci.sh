#!/usr/bin/env bash
# CI entry point: tier-1 tests, the fault-injection torture suite, and an
# ASan+UBSan build of the same. Usage: scripts/ci.sh [build-dir-prefix]
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-ci}"
jobs="$(nproc 2>/dev/null || echo 4)"

generator=()
if command -v ninja > /dev/null 2>&1; then
  generator=(-G Ninja)
fi

echo "==> tier-1 build + tests (${prefix})"
cmake -B "${prefix}" -S . "${generator[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DODCM_WERROR=ON
cmake --build "${prefix}" -j "${jobs}"
ctest --test-dir "${prefix}" --output-on-failure -j "${jobs}"

echo "==> layering guard: RC queue pairs stay below the conduit"
# Upper layers issue RMA through Conduit::rma (DESIGN.md §5.18); a
# QueuePair named above src/core means a data path bypassed it.
if grep -rn "QueuePair" src/shmem src/mpi src/apps src/check; then
  echo "ci.sh: QueuePair named above src/core; use Conduit::rma" >&2
  exit 1
fi

echo "==> one rendezvous protocol: MPI large messages ride the conduit's"
# MPI-lite hands large messages to Conduit::am_send_rendezvous (DESIGN.md
# §5.17); wire rendezvous packets or control tags in src/mpi would be a
# second protocol beside it.
if grep -rnE '\b(RendezvousPacket|CreditPacket|kCtrl[A-Za-z0-9_]*)\b' src/mpi; then
  echo "ci.sh: src/mpi runs its own rendezvous; use" \
    "Conduit::am_send_rendezvous" >&2
  exit 1
fi

echo "==> one match table: MPI and OpenSHMEM collectives match through"
# sim::MatchTable (DESIGN.md §5.16): receives match at arrival in posting
# order. A mailbox per key or a receive/delivery chain in src/mpi would be
# a second way to hand an arriving message to a waiting receiver.
if grep -rn 'Mailbox<' src/mpi src/shmem ||
    grep -rnE '\b(recv_tail_|deliver_tail_|active_poppers)\b' src/mpi; then
  echo "ci.sh: a second matching mechanism reappeared; use" \
    "sim::MatchTable" >&2
  exit 1
fi

echo "==> one RC work-request path: QueuePair::post and fabric::execute"
# Every RC op is one fabric::WorkRequest through QueuePair::post, whose
# state lives in the posting frame; its target effect is fabric::execute,
# which the conduit's shm leg and a PE's local atomics call too (DESIGN.md
# §5 item 3). A per-op body, a per-op make_shared or a read-modify-write in
# src/core or src/shmem would be a second copy of that path.
if grep -rnE '\b(send|rdma_write|rdma_read|fetch_add|compare_swap|swap)_impl\b|\bAtomicResult\b' \
    src/fabric ||
    awk '/---- UD operations ----/ { exit }
         /make_shared/ { print FILENAME ":" FNR ": " $0; found = 1 }
         END { exit !found }' src/fabric/qp.cpp ||
    grep -rlF 'memcpy(&value' src/core src/shmem |
      xargs -r grep -nF 'RmaKind::kFetchAdd' ||
    grep -rnE '(==|!=)[[:space:]]*(core::)?RmaKind::k(FetchAdd|Swap|CompareSwap)\b' \
      src/core src/shmem; then
  echo "ci.sh: a second RC op body or RMW reappeared; build a" \
    "fabric::WorkRequest and use QueuePair::post / fabric::execute" >&2
  exit 1
fi

echo "==> one collective tree: core/tree.hpp holds the k-ary schedule"
# The conduit barrier, OpenSHMEM broadcast/reduce and MPI-lite bcast/reduce
# walk core::KaryTree and fold with shmem::combine_span (DESIGN.md §5 item
# 20). A fan-out knob or local fan-out constant, child arithmetic outside
# core/tree.hpp, or a second ReduceOp switch would be a second tree or a
# second combiner.
if grep -rnE '\b(barrier_fanout|collective_fanout|kFanout)\b' src ||
    grep -rnE '\*\s*(fanout|kFanout|kTreeFanout)\s*\+' \
      src/core src/shmem src/mpi | grep -v '^src/core/tree\.hpp:' ||
    grep -rlF 'case ReduceOp::kSum' src |
      awk '{ files = files $0 "\n" }
           END { if (NR > 1) { printf "%s", files; exit 0 } exit 1 }'; then
  echo "ci.sh: a second collective tree or combiner reappeared; use" \
    "core::KaryTree and shmem::combine_span" >&2
  exit 1
fi

echo "==> per-PE state follows touched peers"
# A PE stores what it learned from the peers it touched; a dense N-sized
# per-PE table is host memory per PE *pair* (DESIGN.md §5 item 21). Ring
# mode's UD table and the conduit's peer_slot_ index are the two kept.
if grep -rnE 'optional<SegmentInfo>>|segments_\.assign\(' src/shmem ||
    grep -rnF 'ud_table_.resize(' src/core ||
    grep -rnE 'Task<std::vector<std::string>>[[:space:]]*(PmiClient::)?iallgather_wait' \
      src/pmi; then
  echo "ci.sh: a dense per-peer table reappeared; store touched peers" \
    "only and read the PMI round's shared table" >&2
  exit 1
fi

echo "==> address spaces are demand-zero"
# fabric::AddressSpace is one private anonymous mapping, resident only
# where written (DESIGN.md §5 item 22); a byte vector would zero-fill and
# keep every page of every simulated heap resident.
if grep -nF 'std::vector<std::byte>' src/fabric/address_space.hpp; then
  echo "ci.sh: an AddressSpace is backed by std::vector<std::byte>;" \
    "keep the demand-zero mapping" >&2
  exit 1
fi

echo "==> calibrated constants are constants"
# The cost model's calibrated values, the handshake's first timeout and
# retry budget, and the PMI daemon-tree fan-out are inline constexpr
# constants beside their config struct (DESIGN.md §5 item 7); a config
# member by one of these names would make a fixed value a knob again.
# (`conn_rto_max` stays a field: benches vary it.)
calibrated='qp_create_cost|qp_transition_cost|qp_destroy_cost'
calibrated="${calibrated}|mem_reg_base_cost|mem_reg_per_page_cost|page_size"
calibrated="${calibrated}|hca_tx_overhead|wire_latency|bytes_per_ns"
calibrated="${calibrated}|loopback_latency|loopback_bytes_per_ns|ack_latency"
calibrated="${calibrated}|responder_overhead|min_packet_gap|mtu"
calibrated="${calibrated}|shm_attach_cost|shm_copy_latency|shm_bytes_per_ns"
calibrated="${calibrated}|shm_atomic_latency|shm_am_overhead"
calibrated="${calibrated}|eager_copy_bytes_per_ns|rendezvous_sink_post_cost"
calibrated="${calibrated}|put_overhead|get_overhead|ipc_bytes_per_ns"
calibrated="${calibrated}|oob_latency|oob_bytes_per_ns|fence_per_entry"
calibrated="${calibrated}|allgather_per_entry|am_handler_overhead"
calibrated="${calibrated}|intranode_barrier_hop|local_copy_latency"
calibrated="${calibrated}|local_bytes_per_ns|wait_poll_interval"
calibrated="${calibrated}|conn_rto|conn_max_retries|tree_fanout"
member='^[[:space:]]*[^/[:space:]].*\b'
if grep -nE "${member}(${calibrated})[[:space:]]*[=;{]" \
    src/core/config.hpp src/shmem/config.hpp src/fabric/config.hpp \
    src/pmi/pmi.hpp ||
    grep -nE "${member}max_retries[[:space:]]*[=;{]" \
      src/check/invariants.hpp; then
  echo "ci.sh: a fixed value became a config field again; use its" \
    "inline constexpr constant" >&2
  exit 1
fi

echo "==> observation guard: one event stream, one observer list, one span"
# Protocol steps are recorded once, as ProtocolEvents on the job's one
# observer list; sim::PhaseTimer is the only RAII span (DESIGN.md §5.8).
deleted='\bTracer\b|OobSpan|set_observer|extra_observers_'
deleted="${deleted}|telemetry::(PhaseTimer|Span)\b"
if grep -rnE "${deleted}" src bench tests; then
  echo "ci.sh: a second observation mechanism reappeared; report a" \
    "ProtocolEvent or use sim::PhaseTimer" >&2
  exit 1
fi
timer_class='^[[:space:]]*(class|struct)[[:space:]]+[A-Za-z0-9_]*(Timer|Span)\b'
if grep -rnE "${timer_class}" src |
    grep -vE '^src/sim/stats\.hpp:[0-9]+:class PhaseTimer \{'; then
  echo "ci.sh: src/ defines an RAII timer besides sim::PhaseTimer" >&2
  exit 1
fi

echo "==> hot-path guard: resumes, HCA tables and counters stay O(1)"
# A coroutine resume is an event record, not a closure (DESIGN.md §5.19):
# Engine::schedule_resume carries the handle without allocating.
if grep -rnE '\[handle\][^{]*\{[^}]*handle\.resume\(\)' src; then
  echo "ci.sh: src/ schedules a resume through a closure; use" \
    "Engine::schedule_resume" >&2
  exit 1
fi
# QPNs index the HCA's QP table directly; (peer, chunk) rkeys are hashed.
if grep -rnE 'std::map<(Qpn|std::pair<RankId)' src/fabric; then
  echo "ci.sh: an ordered map is back on a per-message fabric lookup" >&2
  exit 1
fi
# Counters are interned ids (sim::stat_id); no per-call string key.
if grep -rnE '(StatSet::|void )add\(const std::string&' src; then
  echo "ci.sh: StatSet::add(const std::string&) reappeared; use" \
    "sim::StatId or the string_view overload" >&2
  exit 1
fi

echo "==> bench guard: one definition per figure, in run_all's registry"
# bench/ builds exactly four tools; a figure/table/ablation binary beside
# run_all would be a second definition that can drift from the registry.
tools='run_all|check_sweep|schema_check|micro_engine'
if grep -E '^[[:space:]]*add_executable\(' bench/CMakeLists.txt |
    grep -vE "add_executable\((${tools}) "; then
  echo "ci.sh: bench/CMakeLists.txt defines a standalone executable;" \
    "register the bench in bench/run_all.cpp instead" >&2
  exit 1
fi

echo "==> one job runner: every run_all bench job goes through run_job"
# bench::run_job (bench/bench_util.hpp) is the one place a run_all bench
# builds a sim::Engine and a shmem::ShmemJob, so a hook attached there sees
# every job (DESIGN.md §7). connect_storm keeps its bare core::ConduitJob:
# its host_ms times engine.run() alone.
runner='sim::Engine[[:space:]]+[A-Za-z_]|(sim::Engine|shmem::ShmemJob)>'
runner="${runner}|shmem::ShmemJob[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[({]"
runner="${runner}|engine(\.|->)run\(|(\.|->)spawn_all\(|\bjob(\.|->)run\("
if awk '/^void bench_connect_storm\(/ { skip = 1 }
        !skip { print FILENAME ":" FNR ":" $0 }
        skip && /^}/ { skip = 0 }' bench/run_all.cpp |
    grep -E "${runner}"; then
  echo "ci.sh: a run_all bench builds or runs a job outside" \
    "bench::run_job; call run_job" >&2
  exit 1
fi

echo "==> one connection lifecycle: each step of Fig. 4 has one body"
# Every RC connection comes up and goes down through the conduit's
# lifecycle steps (DESIGN.md §5 item 4): only Conduit::new_rc_qp creates an
# RC QP, only connect_rc_qp moves one to RTR, only bind_qp/unbind_qp write
# Peer::qp and report it, and only establish sets a peer kConnected. Each
# line matching a pattern must sit in the top-level definition of its step.
# The eviction victim has one selection, the LRU list head (the reference
# scan lives in tests/core/hotpath_test.cpp).
# An awk error stops the script (set -e) instead of passing the guard.
lifecycle="$(awk 'BEGIN {
    step["create_qp\\(fabric::QpType::kRc"] = "new_rc_qp"
    step["QpState::kRtr"] = "connect_rc_qp"
    step["Kind::kQpBound"] = "bind_qp"
    step["Kind::kQpUnbound"] = "unbind_qp"
    step["(\\.|->)qp = "] = "bind_qp|unbind_qp"
    step["set_phase\\(.*Phase::kConnected\\)"] = "establish"
  }
  FNR == 1 { fn = "" }
  /^[A-Za-z].*\(/ { fn = "" }
  /^[A-Za-z].*Conduit::[a-z_]+\(/ {
    match($0, /Conduit::[a-z_]+\(/)
    fn = substr($0, RSTART + 9, RLENGTH - 10)
  }
  { for (re in step) if ($0 ~ re && fn !~ ("^(" step[re] ")$"))
      print FILENAME ":" FNR ": " $0 }' \
  $(ls src/core/*.cpp src/core/*.hpp | grep -v '/observer\.'))"
if grep -rn 'debug_reference_victim' src/core || [ -n "${lifecycle}" ]; then
  [ -z "${lifecycle}" ] || printf '%s\n' "${lifecycle}"
  echo "ci.sh: a connection lifecycle step is written out outside its" \
    "Conduit step; call new_rc_qp, connect_rc_qp, bind_qp/unbind_qp or" \
    "establish" >&2
  exit 1
fi

echo "==> repository benchmark self-test (about two minutes)"
# Pins the per-layer counters (bulk_tier_*, credit_stalls, reg_*) the
# benchmark reads, and its run-to-run determinism.
python3 perfbench/test_perfbench.py

echo "==> perf smoke (label: perf-smoke)"
ctest --test-dir "${prefix}" --output-on-failure -L perf-smoke

echo "==> transport conformance matrix (label: transport)"
ctest --test-dir "${prefix}" --output-on-failure -L transport

echo "==> on-demand registration suite (label: registration)"
ctest --test-dir "${prefix}" --output-on-failure -L registration

echo "==> torture sweep (label: torture)"
ctest --test-dir "${prefix}" --output-on-failure -L torture
"${prefix}/bench/check_sweep" --seeds 50 \
  --json "${prefix}/bench-artifacts/CHECK_sweep.json"

echo "==> large-message protocol tiers (label: bulkproto)"
# Wire-format fuzzing for the rendezvous/credit packets, tier routing and
# zero-length pins, the byte-identical transport matrix over all tiers,
# MPI rendezvous, and the credit/fragment-conservation torture cases.
ctest --test-dir "${prefix}" --output-on-failure -L bulkproto
"${prefix}/bench/check_sweep" --seeds 25 --bulkproto \
  --json "${prefix}/bench-artifacts/CHECK_bulkproto_sweep.json"
"${prefix}/bench/check_sweep" --seeds 3 --schedule-seeds 4 --bulkproto \
  --schedule-jitter 200 \
  --json "${prefix}/bench-artifacts/CHECK_bulkproto_schedule_sweep.json"

echo "==> schedule exploration (label: schedule)"
# Seeded tie-break permutation of same-timestamp events: every recipe x
# mode base case re-run under perturbed schedules, plus a bounded-jitter
# pass. On failure the JSON artifact carries the failing schedule seed and
# the one-line minimized replay command next to the MICRO/BENCH artifacts.
ctest --test-dir "${prefix}" --output-on-failure -L schedule
"${prefix}/bench/check_sweep" --seeds 5 --schedule-seeds 8 \
  --json "${prefix}/bench-artifacts/CHECK_schedule_sweep.json"
"${prefix}/bench/check_sweep" --seeds 3 --schedule-seeds 4 \
  --schedule-jitter 300 \
  --json "${prefix}/bench-artifacts/CHECK_schedule_jitter_sweep.json"

echo "==> archiving bench artifacts"
# Includes BENCH_*.json (schema-checked, deterministic), CHECK_sweep.json,
# the CHECK_schedule_*.json exploration tallies (failing schedule seeds and
# replay commands live there), and the MICRO_*.json hot-path microbench
# output from the perf-smoke label.
tar -czf "${prefix}/bench-artifacts.tar.gz" -C "${prefix}" bench-artifacts
ls -l "${prefix}/bench-artifacts.tar.gz"

echo "==> sanitizer build + tests (${prefix}-asan)"
cmake -B "${prefix}-asan" -S . "${generator[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DENABLE_SANITIZERS=ON
cmake --build "${prefix}-asan" -j "${jobs}"
# Leak detection stays off: deadlock- and exception-path tests abandon
# suspended coroutine frames by design (the engine documents this), which
# LSan reports as leaks. ASan OOB/use-after-free and UBSan stay active.
ASAN_OPTIONS=detect_leaks=0 \
  ctest --test-dir "${prefix}-asan" --output-on-failure -j "${jobs}"
# The transport matrix again under ASan/UBSan: the shm path is raw
# cross-mapped memory, exactly where the sanitizers earn their keep.
ASAN_OPTIONS=detect_leaks=0 \
  ctest --test-dir "${prefix}-asan" --output-on-failure -L transport
# And the registration suite: the pin-down cache's chunked regions and the
# rkey-fault/invalidation drain are the newest pointer-heavy paths.
ASAN_OPTIONS=detect_leaks=0 \
  ctest --test-dir "${prefix}-asan" --output-on-failure -L registration
# Schedule-perturbed suites under ASan: permuted wakeup orders reshuffle
# coroutine frame lifetimes, which is exactly where use-after-free hides.
ASAN_OPTIONS=detect_leaks=0 \
  ctest --test-dir "${prefix}-asan" --output-on-failure -L schedule
# The bulk tier engine under ASan: fragment streams hold spans and rkey
# leases across suspension points — lifetime bugs would surface here.
ASAN_OPTIONS=detect_leaks=0 \
  ctest --test-dir "${prefix}-asan" --output-on-failure -L bulkproto
ASAN_OPTIONS=detect_leaks=0 "${prefix}-asan/bench/check_sweep" --seeds 10
ASAN_OPTIONS=detect_leaks=0 "${prefix}-asan/bench/check_sweep" --seeds 2 \
  --schedule-seeds 4
ASAN_OPTIONS=detect_leaks=0 "${prefix}-asan/bench/check_sweep" --seeds 5 \
  --bulkproto

echo "==> ci.sh: all green"
