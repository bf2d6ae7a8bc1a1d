open Farm_sim

(** The cluster harness: builds a complete FaRM instance — machines with
    CPUs and NICs on a shared fabric, per-pair ring logs in NVRAM, the
    Zookeeper-equivalent configuration store, and an initial configuration
    with machine 0 as CM — and provides failure injection and measurement
    hooks for tests and benchmarks. *)

type t = {
  engine : Engine.t;
  params : Params.t;
  rng : Rng.t;
  fabric : Wire.message Farm_net.Fabric.t;
  zk : Config.t Farm_coord.Zk.t;
  machines : State.t array;
  domain_of : int -> int;
  log : Farm_obs.Obs.log;  (** milestones, drops and nemesis actions *)
}

val create :
  ?seed:int -> ?params:Params.t -> ?domains:(int -> int) -> machines:int -> unit -> t
(** Build a cluster. [domains] maps machines to failure domains (default:
    every machine its own domain). Deterministic in [seed]. *)

val machine : t -> int -> State.t
val n_machines : t -> int
val now : t -> Time.t

(** {1 Driving the simulation} *)

val run_until : t -> at:Time.t -> unit
val run_for : t -> d:Time.t -> unit

val run_on : t -> machine:int -> (State.t -> 'a) -> 'a
(** Run a function as a process on a machine and return its result;
    setup/audit convenience. The engine runs in whole 1 ms quanta until
    the process has finished, so every call advances simulated time by a
    whole number of milliseconds, at least one, and the whole cluster's
    background work (leases, log truncation, other processes) runs for
    that long. Fails if the process is still running after 10,000 quanta
    or once nothing is left to run. The one-process case of
    {!run_on_all}. *)

val run_on_all : t -> (int * (State.t -> 'a)) list -> 'a list
(** Run each [(machine, fn)] as a process on its machine, all spawned at
    the same instant, and return their results in argument order. The
    engine runs in whole 1 ms quanta until every process has finished, so
    processes that overlap in simulated time finish together, at the end
    of the quantum in which the last one returns. Fails as {!run_on}
    does. *)

(** {1 Failure injection} *)

val kill : t -> int -> unit
(** Crash a machine: its processes stop and its NIC goes dark, but its
    non-volatile DRAM (regions, logs, block headers) survives. *)

val kill_domain : t -> int -> unit
(** Crash every machine of one failure domain (a rack/switch failure). *)

val kill_cm : t -> unit
(** Crash the CM of the newest configuration ({!cm}). *)

val restart_machine : ?rejoining:bool -> t -> int -> config:Config.t -> State.t
(** Boot a dead machine's FaRM process again on top of its surviving
    NVRAM; volatile state is rebuilt from scratch. By default the machine
    comes back [rejoining]: it stays out of any configuration that lists it
    as a member (its probe word shows the new boot epoch, so the membership
    protocol evicts it — failure and rejoin are both configuration
    changes). [power_cycle] passes [~rejoining:false] because the boot-time
    configuration change already marks every region as changed. *)

val power_cycle : t -> unit
(** Full-cluster power failure and restart (§5 durability): kill every
    machine, reboot all of them from NVRAM, advance the configuration, and
    run the standard drain/vote/decide recovery over every transaction that
    was in flight. Committed state survives; in-doubt transactions resolve
    per the §5.3 rules. *)

val partition : t -> group:int -> int list -> unit

val heal : t -> unit
(** Undo every network fault (partitions and per-link delay/loss). Dead
    machines stay dead; evicted machines stay evicted. *)

val current_config : t -> Config.t option
(** The newest configuration committed by any alive machine. Alive
    non-members are evicted zombies whose state is stale. *)

val cm : t -> int
(** The configuration manager of {!current_config} (machine 0's last view
    when no machine is alive). *)

val quiesce : t -> bool
(** Drive the simulation until the cluster settles (no member
    reconfiguring or blocked, every recovery coordination decided, no new
    milestones for two 30 ms windows); [false] if it fails to settle within
    1 s of simulated time — itself a liveness violation. Call {!heal} first if
    network faults are outstanding. *)

val settle : t -> unit
(** Drive the engine in 1 ms quanta, none if it is settled already, until
    no alive machine holds a live transaction, a truncation it has not yet
    sent, a log write whose result it does not yet know or a log record it
    is still processing. After a set-up phase this outlasts its last
    commits: backups apply a commit's writes when they process its
    truncation, so until then they differ from the primaries. Fails after
    10,000 quanta. *)

(** {1 Region management} *)

val alloc_region : ?locality:int -> ?from:int -> t -> Wire.region_info option
(** Allocate a region via the CM and drive the engine until the two-phase
    protocol completes, in whole 1 ms quanta, normally one. The one-region
    case of {!alloc_regions}, but [None] rather than a failure when the
    allocation fails. *)

val alloc_region_exn : ?locality:int -> ?from:int -> t -> Wire.region_info

val alloc_regions : t -> int -> Wire.region_info array
(** [alloc_regions t n] allocates [n] regions from one process on machine
    0, which asks the CM for them one after another, each once the previous
    one is answered. Rids, primaries and backups are those of [n] calls of
    {!alloc_region_exn}, but the whole sequence runs inside one {!run_on},
    so it takes a single 1 ms quantum while the requests fit in one. Fails
    if any allocation fails. *)

(** {1 Introspection} *)

val log_events : t -> ?after:Time.t -> Farm_obs.Obs.kind -> Farm_obs.Obs.record list
(** The cluster log's records of one kind (a recovery milestone, a drop or
    a nemesis action) at or after [after] (default: the start), oldest
    first. *)

val first_event : t -> ?after:Time.t -> Farm_obs.Obs.kind -> Time.t option
(** The time of the first {!log_events} record, if any. *)

val milestones : t -> (string * int * Time.t) list
(** Every recovery milestone as (tag, machine, time), in emission order,
    tagged by {!Farm_obs.Obs.milestone_tag}. Its one caller is the
    end-to-end benchmark, which matches on the tag strings; every other
    reader queries milestones by kind with {!log_events}. *)

val lost_regions : t -> int list
(** Regions whose every replica died, in detection order. *)

(** The measurements below read each machine's {!Farm_obs.Obs} sink,
    which survives a restart: they count a restarted or power-cycled
    machine's history before the restart too. *)

val merged_counter : t -> Farm_obs.Obs.counter -> int
(** One protocol counter summed over every machine. *)

val total_committed : t -> int
(** Transactions committed cluster-wide ([C_tx_commit]). *)

val total_aborted : t -> int
(** Transactions aborted cluster-wide ([C_tx_abort]). *)

val throughput_series : t -> until:Time.t -> int array
(** Cluster-wide committed transactions per 1 ms bin, bins [0 .. until]. *)

val merged_latency : t -> Stats.Hist.t
(** Commit-phase latency (ns) of every committed transaction. The
    cluster keeps one histogram, which every machine records into: this
    is it, not a copy, and later commits keep filling it. *)

val replicas_of : t -> int -> (int * State.replica) list
(** All replicas of a region across the cluster, dead machines included. *)

(** {1 Observability}

    Every machine carries a {!Farm_obs.Obs.t} sink (reachable as
    [(machine t i).State.obs]); counters, phase and stage histograms are
    always live, the flight-recorder event ring only while recording is
    enabled. The sink survives {!restart_machine}. Counters, rings, heat
    and exemplars are kept per machine; the histograms, the exact
    phase and blame totals and the commit series once per cluster, in
    the cluster log every sink shares. *)

val set_recording : t -> bool -> unit
(** Enable/disable flight-recorder event capture on every machine. Does
    not perturb the simulation: recording never draws randomness or
    schedules work. *)

val merged_counters : t -> (string * int) list
(** Cluster-wide nonzero protocol-counter totals, in declaration order. *)

val merged_phase_hists : t -> (string * Stats.Hist.t) list
(** Commit-phase latency histograms (ns) of committed transactions, kept
    once per cluster like {!merged_latency}; phases that never ran are
    omitted. *)

val merged_stage_hists : t -> (string * Stats.Hist.t) list
(** Recovery-stage timing histograms (ns), kept once per cluster. *)

val flight_dump : t -> string list
(** Every machine's flight-recorder ring merged into one time-sorted,
    rendered dump ([[%time] m<id> <event>] lines); empty when recording
    was never enabled. *)

val set_tracing : t -> bool -> unit
(** Enable/disable causal tracing ({!Farm_obs.Tracer}) on every machine.
    Like recording, tracing never perturbs the simulation: histories under
    seed replay are byte-identical with tracing on or off. *)

val trace_dump : t -> string
(** Every machine's span buffer merged into one Chrome trace-event JSON
    document (openable at ui.perfetto.dev): machines as processes, protocol
    roles as threads, cross-machine flow arrows for log records and RPCs.
    Byte-deterministic for a given seed. *)

(** {2 Latency blame, critical paths and heat}

    The automated latency-attribution layer (DESIGN.md §9). With blame
    armed, every transaction's end-to-end latency is partitioned exactly —
    to the nanosecond — into exclusive categories (admission queueing,
    execute CPU, lock wait, log-ring wait, NIC issue, propagation,
    completion poll, commit wait, deferred truncate); the slowest
    transactions keep exemplar spans that {!critpaths} joins with the
    tracer's flow arrows into cross-machine critical paths. All of it
    obeys the obs-spine rules: O(1) recording, allocation only off the hot
    path, and zero effect on the simulated history. *)

val set_blame : t -> bool -> unit
(** Arm/disarm blame attribution on every machine. Off by default: with
    blame off, spans carry no category array and the commit path allocates
    exactly as before. Arming starts a fresh attribution window (exact
    phase/blame accumulators, blame histograms and exemplars reset), so
    arm between transactions — after a bulk load, before the measured
    run. *)

val blame_totals : t -> (string * int) list
(** Cluster-wide exact ns totals per nonzero blame category, in category
    order. With blame armed, the sum over the non-[admission] categories
    equals the sum of {!phase_totals} over the same window. *)

val phase_totals : t -> (string * int) list
(** Cluster-wide exact ns totals per commit phase (the histogram-free
    accumulators backing {!merged_phase_hists}) — the reconciliation
    anchor for {!blame_totals}. *)

val merged_blame_hists : t -> (string * Stats.Hist.t) list
(** Per-category blame histograms (ns per committed transaction), kept
    once per cluster; categories never blamed are omitted. *)

type heat = { h_region : int; h_score : int; h_access : int; h_conflict : int }

val heat_report : t -> heat list
(** Decaying per-region access/conflict heat, merged across machines and
    sorted hottest first (score = accesses + 4 x conflicts, both decayed
    by halving per elapsed half-life). Always live, like counters. *)

val tail_blame : t -> (string * int) list
(** Blame ns summed over the kept exemplars only — each machine's slowest
    committed transactions — i.e. where the latency tail spends its time
    (admission is excluded by construction: it precedes the span). *)

val critpaths : t -> k:int -> string list
(** The top-[k] slowest committed transactions' cross-machine critical
    paths, rendered: a blame header plus every tx-tagged trace slice,
    critical hops starred. Needs {!set_blame} (exemplars) and
    {!set_tracing} (slices) both on during the run. *)

val trace_dump_critical : t -> k:int -> string
(** {!trace_dump} with the top-[k] exemplars' critical-path slices tagged
    [args.crit = 1] for Perfetto highlighting. *)

val start_sampling : t -> until:Time.t -> unit
(** Start the timeline sampler on every machine with the standard gauge
    set — commits, aborts, one_sided_ops (cumulative deltas per interval),
    log_ring_bytes (level), cpu_busy_ns (cumulative) — sampling every
    1 ms of simulated time until the [until] horizon, after which the
    samplers stop and the engine can drain. Idempotent per machine while
    running. *)

val timeline_dump : t -> string
(** The sampled series of every machine merged (summed per timestamp bin)
    into one JSON document. Byte-deterministic for a given seed. *)

val timeline_column : t -> string -> (int * int) list
(** One series of the merged timeline (e.g. ["commits"]), as (sim-time ns,
    cluster-wide value) rows, oldest first; [[]] if no machine samples
    it. *)

val abort_breakdown : t -> (string * int) list
(** Cluster-wide abort causes: [lock-refused], [validate-failed],
    [timeout], and the residue [other], summing to total aborts. *)

val pp_stats : Format.formatter -> t -> unit
(** Per-machine counters plus the merged phase/stage tables. *)
