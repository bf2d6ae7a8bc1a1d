(** Simulated clock-synchronisation service with bounded uncertainty.

    Every machine owns a {!handle} whose reading is an interval
    [\[lo, hi\]] of width 2ε guaranteed to contain true (engine) time:
    the handle carries a static per-machine offset [|off| < ε] drawn at
    cluster construction, and reads as [engine_now + off ± ε]. Timestamps
    are plain integers (nanoseconds), comparable across machines.

    The snapshot commit protocol (FaRMv2-style opacity via global time)
    uses it two ways: transactions take their read snapshot at [lo] when
    they begin, and writers {!commit_wait} until every machine's lower
    bound has provably passed their write timestamp before reporting
    success — the Spanner-style uncertainty wait, bounded by ~3ε of
    simulated time. *)

type t
(** The cluster-wide service: one engine, one ε. *)

val create : Engine.t -> eps:Time.t -> t

val draw_offset : t -> Rng.t -> int
(** A per-machine static offset in nanoseconds, uniform in
    [(-ε, ε)] (0 when ε = 0). Deterministic in the generator. *)

type handle
(** One machine's view of the service. *)

val handle : t -> offset_ns:int -> handle
(** Raises [Invalid_argument] unless [|offset_ns| < ε] (or both are 0). *)

val lo : handle -> int
(** Lower bound of the current reading, clamped to [>= 0] (engine time
    starts at 0, so 0 is always a valid lower bound on true time). *)

val hi : handle -> int
(** Upper bound of the current reading: [>= ] true time, always. *)

val commit_wait : handle -> ts:int -> unit
(** Sleep (must run inside a process) until [ts] has passed every
    machine's lower bound: [lo > ts + 2ε] locally implies
    [engine_now - 2ε > ts], i.e. even the laggiest clock's [lo] exceeds
    [ts]. Returns immediately when already past. *)
