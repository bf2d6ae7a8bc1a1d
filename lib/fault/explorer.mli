open Farm_sim

(** The schedule explorer: N random fault schedules of a conserving bank
    and B-tree workload, each on a fresh cluster fully determined by one
    integer seed. Every run's committed history is checked for strict
    serializability, and the healed, quiesced cluster is probed for state
    invariants ({!Invariant}), value conservation, and B-tree structural
    integrity. A failing run is reproduced bit-for-bit — identical faults,
    identical event trace — by {!run_one} on its seed. *)

type opts = {
  machines : int;
  cells : int;
  workers : int;  (** workers per machine *)
  duration : Time.t;  (** workload + fault window per schedule *)
  protocol : Farm_core.Params.protocol;
      (** commit protocol variant under test: the validate-at-commit
          baseline (default) or the snapshot (opacity) protocol *)
  record : bool;
      (** capture flight-recorder events (the default). Recording never
          perturbs the schedule: outcomes are identical either way. *)
  perfetto : bool;
      (** also capture a causal trace ({!Farm_core.Cluster.trace_dump}),
          rendered into [perfetto_json]. Off by default (span buffers cost
          memory per machine); tracing never perturbs the schedule. *)
  gray : bool;
      (** draw schedules from the gray-failure family
          ({!Schedule.generate_gray}: slow/lossy NICs, directed blackholes,
          CPU throttling, lease flapping) instead of the classic
          crash/partition pool. Off by default, so existing pools keep
          their exact historical schedule streams. *)
}

val default_opts : opts

type outcome = {
  seed : int;
  committed : int;
  violations : string list;  (** empty = the run passed every check *)
  trace : string list;  (** merged fault / milestone event trace *)
  recorder : string list;
      (** time-sorted flight-recorder dump: the last protocol events each
          machine observed (empty when [record] was off) *)
  perfetto_json : string option;
      (** the run's merged Chrome trace-event JSON ([None] when [perfetto]
          was off); byte-identical across replays of the same seed *)
  abort_causes : (string * int) list;
      (** cluster-wide abort breakdown ({!Farm_core.Cluster.abort_breakdown}):
          lock-refused / validate-failed / timeout / other *)
  blame : (string * int) list;
      (** cluster-wide latency-blame totals, ns per category
          ({!Farm_core.Cluster.blame_totals}; empty when [record] was off) —
          where a failing schedule's transactions actually spent their
          time *)
}

val ok : outcome -> bool
val pp_outcome : Format.formatter -> outcome -> unit

type report = {
  base_seed : int;
  schedules : int;
  total_committed : int;
  failures : outcome list;
}

val run_one :
  ?opts:opts -> ?probe:(seed:int -> Farm_core.Cluster.t -> string list) -> int -> outcome
(** Run one schedule from its seed. Deterministic: equal seeds yield equal
    outcomes, including byte-identical traces. [probe] is an extra
    invariant probe run against the healed cluster after the built-in
    checks; every string it returns becomes a violation (tests use it to
    inject failures and exercise the failing-outcome path). *)

val sweep :
  ?opts:opts ->
  ?probe:(seed:int -> Farm_core.Cluster.t -> string list) ->
  ?on_outcome:(index:int -> outcome -> unit) ->
  ?jobs:int ->
  base_seed:int ->
  schedules:int ->
  unit ->
  report
(** Explore [schedules] runs with per-run seeds derived from [base_seed],
    farmed out to [jobs] worker domains (default 1 = sequential, in the
    calling domain). Each schedule is an isolated world derived from its
    seed, and outcomes are merged in seed order, so the report — including
    [on_outcome] delivery order and every rendered failure trace and
    flight-recorder dump — is byte-identical for any [jobs]. [on_outcome]
    always runs in the calling domain. *)
