open Farm_sim

(** The cluster-wide timeline sampler: an engine-scheduled periodic tick
    that snapshots registered gauges into per-machine ring-buffered
    series, with merged JSON export.

    One [Timeline.t] lives inside each machine's {!Obs.t}. The caller
    (normally [Cluster.start_sampling]) registers a set of gauges —
    closures reading counters or derived values as plain ints — then
    starts the tick. All machines are started at the same instant with
    the same interval, so their rows stay timestamp-aligned and the
    merged export can sum them bin by bin.

    Sampling obeys the spine's rules: each tick is O(series) integer
    reads and stores into one {!Ring} row, whose storage grows with the
    rows taken; a timeline that was never started schedules nothing and
    holds no rows; ticks read the clock and the gauges only — no
    randomness, no blocking — and stop at a fixed horizon so they cannot
    keep the engine's work queue alive past it. Same seed ⇒
    byte-identical export. *)

type t

type kind =
  | Cumulative
      (** The gauge is a monotonically increasing total (a counter);
          each row stores the delta over the last interval, clamped at 0
          so a restart-induced reset cannot go negative. *)
  | Level  (** Each row stores the instantaneous value (an occupancy). *)

val create : Engine.t -> machine:int -> t
(** The row ring keeps up to 4096 rows, oldest overwritten first. *)

val add_series : t -> name:string -> kind:kind -> (unit -> int) -> unit
(** Register a gauge. Must precede {!start}; registration order is the
    column order of {!rows} and of the export. *)

val start : t -> interval:Time.t -> until:Time.t -> unit
(** Begin ticking: the first sample lands at [now + interval] and
    sampling stops once the next tick would pass [until] (the horizon
    keeps [Engine.pending] from staying positive forever). Cumulative
    baselines are read at [start]. Restarts after the horizon are
    allowed and append to the same ring, unless series were added since
    the last start: then rows take the new width and the ring starts
    empty. *)

val running : t -> bool
val series_names : t -> string list

val rows : t -> (int * int array) list
(** Sampled rows, oldest first, as (sim-time ns, one value per series in
    registration order). *)

val ring : t -> unit Ring.t
(** The row storage, for memory accounting. *)

val merge : t list -> string list * (int * int array) list
(** Rows merged across machines: the series names (the lowest machine's,
    in registration order) and, oldest first, (sim-time ns, per-series
    sums of the rows sampled at that instant). Every machine is sampled at
    the same instants; a machine's columns are matched by name, and a
    series only other machines have is left out. *)

val export_json : t list -> string
(** {!merge}'s rows as JSON:
    [{"interval_ns":..,"machines":[..],"series":[..],"rows":[[t,v..],..]}]
    where rows are merged across machines by summing timestamp-aligned
    bins (every machine is sampled at the same instants). All values are
    ints, so the document is byte-identical across replays of a seed. *)
