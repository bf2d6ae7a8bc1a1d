open Farm_sim

(** The observability spine: per-machine protocol counters, commit-phase
    spans, recovery-stage timings, and one typed event pipeline.

    One [Obs.t] lives on each machine (created by {!Cluster}, threaded
    through {!State} and the fabric) and every protocol layer emits through
    it: {!event} is the only way any layer records a discrete event. It is
    the only measurement store, and it survives a restart of the machine,
    so its totals cover the machine's whole history.

    What is only ever read cluster-wide is kept once per cluster, in the
    {!log} the sinks of one cluster share: the phase and stage histograms
    ({!hist}), commit latency and the per-ms commit series, and the blame
    window's exact totals and histograms. Each is an integer sum, so one
    copy that every machine writes equals the merge of per-machine copies.
    What stays per machine: the counters (the end-to-end benchmark sums
    them machine by machine, so one shared array would be counted once per
    machine), the flight-recorder ring, tracer and sampler, the heat table
    (each machine halves its own integer counts lazily; one table would
    halve sums instead of summing halves, and round differently) and the
    exemplars (each machine's own 8 slowest: [Cluster.tail_blame] sums
    them all, and pinned reports depend on that sum). The design obeys
    three hard rules:

    - {b O(1), allocation-light recording.} Events are a constant
      constructor plus three integer arguments written into a {!Ring}
      slot; counters are plain array increments; spans mutate a small
      per-transaction record. Nothing is formatted until a dump is
      requested.
    - {b Near-zero cost when disabled.} The flight-recorder ring and the
      tracer are each gated on one boolean. Counters, phase histograms,
      spans and the cluster log are always on (they are a handful of
      integer writes, feed the bench reports, and the log holds only rare
      events).
    - {b Determinism is never perturbed.} Recording only reads
      {!Engine.now} and mutates obs-local state — it never draws from an
      {!Rng}, schedules engine work, or blocks. Histories under seed replay
      are byte-identical with recording on or off. *)

type t

type log
(** A cluster log, shared by the sinks of one cluster: the always-on
    event log (see {!event}) and the cluster-wide aggregates. *)

(** {1 Creation} *)

val create : ?capacity:int -> ?log:log -> Engine.t -> machine:int -> t
(** A per-machine sink, its flight-recorder ring ([capacity] events,
    default 128, storage growing with use) off. [log] is the cluster log
    this machine writes its events and aggregates to (default: a fresh
    one). *)

val set_enabled : t -> bool -> unit
(** Gates the flight-recorder ring only; the tracer and timeline have
    their own switches (see below). *)

val tracer : t -> Tracer.t
(** This machine's causal tracer (see {!Tracer}); off until
    [Tracer.set_enabled]. *)

val timeline : t -> Timeline.t
(** This machine's timeline sampler (see {!Timeline}); idle until
    series are registered and [Timeline.start] is called. *)

(** {1 Counters} — always on, one integer cell each. *)

type counter =
  | C_rdma_read  (** one-sided reads issued (single or batched) *)
  | C_rdma_write  (** one-sided writes issued (single or batched) *)
  | C_rdma_batch  (** doorbell-batched verb groups issued *)
  | C_rpc_send  (** fire-and-forget RC messages sent *)
  | C_rpc_call  (** blocking RPCs issued *)
  | C_ud_send  (** unreliable-datagram messages sent (leases) *)
  | C_ud_drop  (** UD packets lost on a faulty link *)
  | C_rc_retransmit  (** RC retransmissions on a faulty link *)
  | C_log_append  (** log records written (acked) *)
  | C_log_append_fail  (** log writes whose NIC gave up *)
  | C_log_record  (** incoming log records processed *)
  | C_log_trunc  (** truncations applied at this receiver *)
  | C_log_trunc_deferred  (** truncations deferred (records pending) *)
  | C_lock_ok  (** LOCK records granted all their locks *)
  | C_lock_fail  (** LOCK records refused *)
  | C_tx_commit  (** transactions committed here (coordinator) *)
  | C_tx_abort  (** transactions aborted here (coordinator) *)
  | C_lease_renewal  (** lease renewal requests sent *)
  | C_lease_grant  (** lease messages handled as a grantor *)
  | C_lease_expiry  (** lease expiries observed *)
  | C_suspect  (** machines newly suspected here *)
  | C_reconfig  (** NEW-CONFIG applications (configuration changes) *)
  | C_rec_vote  (** recovery votes received as coordinator *)
  | C_rec_decide  (** recovering transactions decided here *)
  | C_abort_lock_refused  (** aborts caused by a refused LOCK record *)
  | C_abort_validate_failed  (** aborts caused by a failed VALIDATE read *)
  | C_abort_timeout  (** aborts caused by timeouts / machine failure *)
  | C_snap_read  (** snapshot-protocol object reads (any source) *)
  | C_snap_chain_read  (** of which served from a version chain *)
  | C_ro_commit  (** read-only transactions committed locally, no VALIDATE *)
  | C_wm_trim  (** version-chain nodes truncated below the watermark *)

val all_counters : counter list
(** Every counter, in declaration order. *)

val counter_name : counter -> string
val incr : t -> counter -> unit
val add : t -> counter -> int -> unit
val counter : t -> counter -> int

val commit_latency : t -> Stats.Hist.t
(** Commit-phase latency (ns) of every transaction committed by any sink
    of this sink's log, from the latency its [K_tx_commit] event carries. *)

val commit_series : t -> Stats.Series.t
(** Transactions committed by any sink of this sink's log per 1 ms bin of
    sim time, filled by the [K_tx_commit] events. *)

(** {1 Protocol points}

    One vocabulary names every step of the commit protocol and of
    recovery that is timed, traced or hooked: the commit phases a {!Span}
    is cut into, the per-record steps at the logs, and the recovery
    stages. A point carries a short name ({!point_name}: ["lock"],
    ["drain"]), which keys its histogram and its [K_phase] tags, and a
    trace label ({!point_label}: ["LOCK"], ["rec-drain"]), which names
    its trace slices. *)

type point =
  | P_execute  (** the application's reads and buffered writes, before
                   commit starts (§4) *)
  | P_lock  (** LOCK records to the write set's primaries, which lock
                and reply (§4, Figure 4 step 1) *)
  | P_validate  (** one-sided re-reads of the read set's versions (step 2) *)
  | P_commit_backup  (** COMMIT-BACKUP records to every backup, waiting for
                         all NIC acks (step 3) *)
  | P_commit_primary  (** COMMIT-PRIMARY records; the primaries install
                          and unlock (step 4) *)
  | P_truncate  (** lazy truncation of the records once every primary
                    acked (step 5) *)
  | P_commit_wait  (** snapshot protocol: the coordinator waiting out
                       clock uncertainty before exposing its writes *)
  | P_log_append  (** one one-sided write of a record into a remote
                      log, at its sender (§3, §4) *)
  | P_log_process  (** one record's processing at the log's owner (§4) *)
  | P_lock_grant  (** a primary took every lock of a LOCK record (§4
                      step 1) *)
  | P_lock_refuse  (** a primary refused a LOCK record (§4 step 1) *)
  | P_drain  (** recovery: config commit to log-drain completion (§5.3
                 step 2) *)
  | P_region_active  (** recovery: config commit to region re-activation,
                         after lock recovery (§5.3 step 4) *)
  | P_decide  (** recovery: coordination of a recovering transaction,
                  creation to decision (§5.3 step 7) *)

val all_points : point list
(** Every point, in declaration order. *)

val point_name : point -> string
val point_label : point -> string

val all_phases : point list
(** The commit phases, [P_execute] to [P_commit_wait]: the segments of a
    {!Span}. Functions documented as taking a phase accept only these. *)

val phase_name : point -> string
(** {!point_name}, under the name the end-to-end benchmark reads. *)

val all_stages : point list
(** The recovery stages: [P_drain], [P_region_active], [P_decide]. *)

val point_edge : after:bool -> point -> int
(** The [a] argument of a [K_phase] event: the hook sits just [after]
    (or before) the point. *)

val hist : t -> point -> Stats.Hist.t
(** Durations (ns) at a point, over every sink of this sink's log (one
    histogram, shared): the segments of committed transactions for a
    commit phase, the stages completed for a recovery stage (from the
    [K_rec_drain], [K_rec_region_active] and [K_rec_decide] events). Empty
    for the per-record points. *)

(** {1 Commit-phase spans}

    One span per transaction, started by [Txn.begin_tx] and driven by the
    commit pipeline: {!Span.enter} closes the current segment at
    [Engine.now] and opens the next, so the segments partition the
    transaction's lifetime exactly — they sum, to the nanosecond, to the
    end-to-end latency reported at {!Span.finish}. Committed spans fold
    their segments into the cluster's phase histograms (skipping phases
    never entered or of zero duration). *)

(** Blame categories — the exclusive latency partition documented in the
    {{!section-latency_blame} Latency blame} section below. Declared here
    because {!Span.claim} takes one. *)
type blame =
  | B_admission  (** open-loop admission queueing before the span starts *)
  | B_execute  (** coordinator CPU in the execute phase *)
  | B_lock_wait  (** waiting for LOCK outcomes at the primaries *)
  | B_logring_wait  (** stalled reserving remote log-ring space *)
  | B_nic_issue  (** CPU issuing one-sided verbs / doorbells *)
  | B_propagation  (** wire flight + remote NIC/DMA + serialization *)
  | B_poll  (** reaping completions *)
  | B_commit_wait  (** snapshot protocol: waiting out clock uncertainty *)
  | B_truncate  (** deferred background truncation *)

val all_blames : blame list
val blame_name : blame -> string
val blame_index : blame -> int

module Span : sig
  type obs := t
  type t

  val start : ?tid:int -> obs -> t
  (** Open a span in [P_execute] at the current sim time. [tid] (default
      0) is the worker-thread track its trace slices land on. *)

  val set_tx : t -> txm:int -> txt:int -> txl:int -> unit
  (** Attach the transaction's trace context — (coordinator machine,
      thread, local id), i.e. its {!Txid} — once the commit pipeline has
      assigned it; subsequent trace slices carry it. *)

  val enter : t -> point -> unit
  (** Close the current segment and open a phase — also emitting the
      closed segment as a trace slice when the tracer is on. No-op after
      [finish]. *)

  val finish : t -> committed:bool -> unit
  (** Close the span at the current sim time. Committed spans fold their
      segments into the phase histograms. Idempotent. *)

  val late_segment : t -> point -> start:int -> unit
  (** Record a phase segment of a committed span that ends now, after
      {!finish} — the background TRUNCATE, timed from the commit report
      at [start] (sim ns): into the phase's histogram and exact total,
      wholly into the phase's default blame category while blame is
      armed, and as a trace slice on the span's track. *)

  val claim : t -> blame -> int -> unit
  (** Attribute [ns] of the current phase segment to a blame category.
      Callers must claim consecutive, non-overlapping wall-clock
      sub-intervals of their own elapsed time inside the segment (measure
      [Engine.now] around the work, claim the difference); the segment's
      unclaimed remainder falls to the phase's default category at the
      next {!enter}/{!finish}. A length check when blame is off. *)

  val segments : t -> (point * int) list
  (** Entered segments with their accumulated nanoseconds. *)

  val total_ns : t -> int
  (** End-to-end nanoseconds ([finish] time - [start] time); 0 before
      [finish]. *)

  val blame : t -> (blame * int) list
  (** Nonzero blame claims (including defaulted remainders); [[]] while
      blame is off. *)
end

val phase_total_ns : t -> point -> int
(** Exact nanoseconds recorded into a phase by any sink of this sink's log
    since the log's creation or the last arming of blame (committed
    transactions only) — an integer
    sum, not a histogram readback, so blame totals can be reconciled
    against it to the ns. *)

(** {1 Latency blame}

    An exclusive partition of committed-transaction latency, finer than
    the phases: instrumented resources ({!Farm_net.Fabric}, the log
    writer, the admission queue) {!Span.claim} the consecutive
    wall-clock sub-intervals they spent inside the current phase segment,
    and at each phase boundary the unclaimed remainder falls to the
    phase's default category. Claims never overlap and the remainder
    absorbs what they left, so a transaction's category sums equal its
    span total {e exactly} — and, in aggregate,
    [sum over categories except admission of blame_total_ns] equals
    [sum over phases of phase_total_ns] to the nanosecond.

    The whole layer is gated on {!set_blame} (default off): disabled, a
    span carries the static empty array and {!Span.claim} is a length
    check, so the commit hot path's allocation budget is untouched. *)

val set_blame : t -> bool -> unit
(** Arm blame attribution: spans started afterwards carry a per-category
    claim array. The off-to-on transition starts a fresh attribution
    window — the log's exact accumulators ({!phase_total_ns},
    {!blame_total_ns}) and blame histograms, and this sink's exemplar
    list, are reset so blame and phase totals cover the same interval (arm
    after a bulk load, not during a transaction; arm every sink of a log
    at one instant, or the later arming erases the earlier sinks' window).
    The phase {e histograms} are whole-run observables and are not
    touched. Recording stays determinism-inert either way. *)

val blame_enabled : t -> bool

val blame_hist : t -> blame -> Stats.Hist.t
(** Per-category nanoseconds of committed transactions, over every sink of
    this sink's log (admission comes from its own record site, truncate
    from {!Span.late_segment}). *)

val blame_total_ns : t -> blame -> int
(** Exact nanoseconds recorded into the category by any sink of this
    sink's log since the last arming of blame. *)

val record_blame : t -> blame -> int -> unit
(** Record a duration directly into a category — the admission queue
    uses this, before a span exists. *)

(** {2 Exemplars} — the slowest committed transactions, kept while blame
    is armed so reports can show where the tail's time went. *)

type exemplar = {
  ex_txm : int;  (** coordinator machine *)
  ex_txt : int;  (** coordinator thread *)
  ex_txl : int;  (** tx local id *)
  ex_start : int;  (** span start, sim ns *)
  ex_total : int;  (** end-to-end ns *)
  ex_blame : int array;  (** per-category ns, indexed by {!blame_index} *)
}

val exemplars : t -> exemplar list
(** Up to 8 slowest committed spans coordinated at this sink, slowest
    first; deterministic under seed replay. Kept per machine, not per
    log. *)

(** {1 Per-region heat} — decaying access/conflict counters (see {!Heat});
    always on, like the counters. *)

val heat : t -> Heat.t
val heat_access : t -> region:int -> unit
val heat_conflict : t -> region:int -> unit

(** {1 Events}

    One vocabulary for every discrete event: protocol steps, recovery
    milestones, fabric drops and nemesis actions. An event is a kind plus
    three integer arguments (documented per constructor). Its kind picks
    the counter it bumps and its sinks: the flight-recorder ring (while
    {!set_enabled}), the tracer as an instant (while tracing: drops, lease
    expiries, suspicions, config commits, truncations, flow-carrying
    messages), the recovery-stage histograms and trace slices (the
    [K_rec_*] durations), and the always-on cluster log (milestones,
    drops, nemesis actions). Strings are built only when a sink is
    dumped. *)

type kind =
  | K_rdma_read  (** a=dst, b=bytes *)
  | K_rdma_write  (** a=dst, b=bytes *)
  | K_rdma_batch  (** a=ops, b=total bytes *)
  | K_send  (** RC message: a=dst, b=bytes, c=flow id (0 none) *)
  | K_send_ud  (** UD datagram: a=dst, b=bytes, c=flow id (0 none) *)
  | K_call  (** a=dst, b=bytes, c=flow id (0 none) *)
  | K_msg_recv  (** delivery of a message: a=src, b=bytes, c=flow id;
                    tracer only *)
  | K_ud_drop  (** UD packet lost: a=dst *)
  | K_rc_retransmit  (** RC retransmission: a=dst *)
  | K_log_append  (** a=dst, b=record bytes, c=ring bytes used after *)
  | K_log_append_fail  (** a=dst, b=record bytes *)
  | K_log_record  (** a=sender, b=payload tag (0 LOCK, 1 COMMIT-BACKUP, 2
                      COMMIT-PRIMARY, 3 ABORT, 4 TRUNCATE-MARKER) *)
  | K_log_trunc  (** a=coordinator machine, b=tx local id *)
  | K_phase  (** a commit-protocol hook point: a={!point_edge}, rendered
                  ["before-"] or ["after-"] plus the point's name
                  (["after-lock"]); b=tx thread, c=tx local id *)
  | K_tx_commit  (** c=latency ns; also fills {!commit_latency} and
                     {!commit_series} *)
  | K_tx_abort  (** a=abort-reason tag, b=cause (0 lock-refused, 1
                    validate-failed, 2 timeout, 3 other) *)
  | K_lease_renewal  (** a=grantor *)
  | K_lease_grant  (** a=requester *)
  | K_lease_expiry  (** a=expired peer *)
  | K_suspect  (** a=suspect *)
  | K_new_config  (** a=config id, b=member count, c=cm *)
  | K_config_commit  (** a=config id *)
  | K_rec_drain  (** a=config id, b=duration ns of stage [P_drain] *)
  | K_rec_region_active  (** a=region, b=duration ns of [P_region_active] *)
  | K_rec_vote  (** a=region, b=vote tag *)
  | K_rec_decide  (** a=1 committed / 0 aborted, b=duration ns of [P_decide] *)
  | K_ms_killed  (** milestone: the machine was crashed *)
  | K_ms_power_cycle  (** milestone: whole-cluster power cycle, filed at the CM *)
  | K_ms_suspect  (** milestone: new suspicions at this machine *)
  | K_ms_probe  (** milestone: a would-be CM probed the members *)
  | K_ms_zookeeper  (** milestone: it won the configuration store *)
  | K_ms_region_lost  (** milestone: a=region whose replicas all died *)
  | K_ms_new_config  (** milestone: NEW-CONFIG sent *)
  | K_ms_config_commit  (** milestone: NEW-CONFIG-COMMIT sent *)
  | K_ms_all_active  (** milestone: every member's regions are active *)
  | K_ms_data_rec_start  (** milestone: data recovery started here *)
  | K_ms_region_recovered  (** milestone: one region re-replicated *)
  | K_ms_data_rec_done  (** milestone: data recovery finished *)
  | K_fault  (** nemesis: a=index of the applied fault in its schedule *)
  | K_flap_stall  (** nemesis: one stall of a lease flap, a=machine,
                      b=stall ns *)

val event : t -> kind -> a:int -> b:int -> c:int -> unit
(** Record an event: bump its counter, then write it to each sink its
    kind selects and its gate lets through. *)

val events : t -> (int * string) list
(** The flight-recorder ring's contents, oldest first, as (sim-time ns,
    rendered line). *)

val total_events : t -> int
(** Ring events recorded since creation, including overwritten ones. *)

(** {2 The cluster log} — shared by every machine of a cluster, always
    on, in emission order; it also holds the cluster-wide aggregates
    above. *)

val create_log : unit -> log

type record = {
  r_at : int;  (** sim-time ns *)
  r_kind : kind;
  r_machine : int;  (** the machine whose sink recorded it *)
  r_a : int;
  r_b : int;
  r_c : int;
}

val log_records : log -> record list
(** Every logged event, oldest first. *)

val log_milestones : log -> int
(** The number of milestones logged so far; O(1). *)

val is_milestone : kind -> bool

val milestone_tag : kind -> a:int -> string
(** A milestone's display tag (["suspect"], ["region-lost:3"], ...).
    Raises [Invalid_argument] on other kinds. *)

(** {1 Reporting} *)

val pp_counters : Format.formatter -> t -> unit
(** Nonzero counters as [name=value], space-separated. *)

val pp_hist_table : Format.formatter -> (string * Stats.Hist.t) list -> unit
(** A count/p50/p90/p99/p999/max/mean table (microseconds) of nonempty
    histograms. *)
