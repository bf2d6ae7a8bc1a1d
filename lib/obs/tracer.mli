open Farm_sim

(** Causal tracing: per-machine span buffers recording the begin/end
    of every protocol step, plus flow events linking a log
    record's (or message's) send to its remote processing, exported as
    Chrome trace-event JSON openable directly in ui.perfetto.dev. The
    tracer is a sink that knows no protocol vocabulary: callers name
    each slice (after its {!Obs.point}'s trace label) and each instant.

    One [Tracer.t] lives inside each machine's {!Obs.t} sink. Like the
    rest of the obs spine it obeys three hard rules:

    - {b O(1), allocation-light recording.} A slice or instant is a
      handful of integer stores into a {!Ring} slot; rendering happens
      only at export time.
    - {b Near-zero cost when disabled.} Every recording entry point
      reduces to a load and a branch while tracing is off.
    - {b Determinism is never perturbed.} Recording reads {!Engine.now}
      and mutates tracer-local state only — it never draws randomness,
      schedules engine work, or blocks. The same seed yields
      byte-identical exports, and byte-identical histories with tracing
      on or off.

    {2 Trace context and flows}

    The trace context of a transaction is its {!Txid}-shaped identity —
    (coordinator machine, thread, local step counter) — which FaRM
    already carries on every log record and commit-protocol message.
    Slices record it as three small integers; {!flow_id} derives a
    cluster-unique correlation id from (context, record tag,
    destination), so the sender of a LOCK or COMMIT-BACKUP record and
    its remote processor compute the same id independently, without any
    wire-format change. At export, a slice's [flow_out] becomes a
    [ph:"s"] flow start bound to it and [flow_in] a [ph:"f"] flow end —
    the cross-machine arrows in Perfetto. *)

type t

val create : ?capacity:int -> Engine.t -> machine:int -> t
(** A per-machine tracer; [capacity] bounds the span buffer (default
    4096 slots, oldest overwritten first). The buffer's storage grows
    with the slots recorded. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val total : t -> int
(** Events recorded since creation, including overwritten ones. *)

val ring : t -> string Ring.t
(** The span buffer, for memory accounting. *)

(** {1 Thread tracks}

    Within one machine (one Perfetto process), tids partition the
    protocol roles: worker threads keep their own indices (the
    coordinator-side commit pipeline), and fixed tracks carry the
    receiver, network, lease and recovery roles. *)

val tid_net : int
val tid_lease : int
val tid_recovery : int

val tid_log : sender:int -> int
(** The log-processing track for records written by [sender]. *)

val tid_name : int -> string
(** The display name of a thread track ("worker 3", "net", "lease",
    "recovery", "log from m2"). *)

val flow_id : machine:int -> thread:int -> local:int -> tag:int -> dst:int -> int
(** Deterministic nonzero correlation id for one record of one
    transaction to one destination; sender and receiver compute it
    independently from the trace context already on the record. *)

(** {1 Recording} — all O(1), gated on {!enabled}.

    Trace context is passed as [txm]/[txt]/[txl] (coordinator machine,
    thread, local id), with [txm = -1] meaning none. [flow_in]/[flow_out]
    are {!flow_id} values, 0 meaning none. [start] is the slice's start
    in sim-time ns; its duration is [Engine.now - start]. *)

val slice :
  t ->
  tid:int ->
  label:string ->
  start:int ->
  arg:int ->
  txm:int ->
  txt:int ->
  txl:int ->
  flow_in:int ->
  flow_out:int ->
  unit
(** A slice on track [tid] from [start] to now. [label] must be a
    constant: the slot keeps the string itself. The export appends the
    record tag its flow id encodes to the label of a slice that carries
    a flow (["log-append LOCK"]). *)

val instant : t -> tid:int -> name:string -> arg:int -> unit
(** A point event on track [tid]. [name] must be a constant: the slot
    keeps the string itself. {!Obs.event} records every instant, named
    after its event kind. *)

(** {1 Offline views}

    Read-only snapshots of the recorded slices for offline analysis
    ({!Critpath} reconstructs cross-machine transaction paths from them).
    Purely a rendering of existing slots — taking views never perturbs
    recording. *)

type view = {
  v_machine : int;
  v_tid : int;
  v_name : string;  (** the display name the export renders (log slices
                        carry their record type, e.g. ["log-process LOCK"]) *)
  v_ts : int;  (** start, sim ns *)
  v_dur : int;  (** ns *)
  v_txm : int;  (** trace context; -1 = none *)
  v_txt : int;
  v_txl : int;
  v_fin : int;  (** incoming / outgoing flow ids; 0 = none *)
  v_fout : int;
}

val views : t list -> view list
(** Every live slice of the given tracers in the export's deterministic
    order: (timestamp, machine, slot age). *)

(** {1 Export} *)

val export_json : ?mark:(view -> bool) -> t list -> string
(** The merged Chrome trace-event JSON document ([{"traceEvents": [...]}]):
    machines as processes, protocol roles as named threads, slices as
    [ph:"X"] complete events (ts/dur in microseconds), flow endpoints as
    [ph:"s"]/[ph:"f"] pairs bound to their slices, and instants as
    [ph:"i"] events. Events are ordered by (timestamp, machine, slot
    age) so the document is a pure function of the recorded state —
    byte-identical across replays of the same seed.

    [mark] tags the slices it selects with [args.crit = 1] (critical-path
    highlighting); omitted, the output is byte-identical to what earlier
    versions produced. *)
