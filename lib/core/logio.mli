open Farm_net

(** Sender-side transaction-log writes (§4): reservation-backed one-sided
    appends with truncation piggybacking, plus the background flusher that
    lazily truncates idle logs. *)

val trunc_allowance : int
(** Bytes a transaction reserves per participant log for its eventual
    truncation entry. *)

val append : State.t -> dst:int -> thread:int -> Wire.record -> (int, Fabric.error) result
(** Write a record into the log at [dst], draining this machine's pending
    truncations for [dst] into the piggyback fields. Blocks until the
    receiver NIC's hardware ack. Returns the caller's own share of consumed
    log space. *)

val append_prepared :
  ?span:Farm_obs.Obs.Span.t ->
  ?on_complete:(int -> (unit, Fabric.error) result -> unit) ->
  State.t ->
  thread:int ->
  n:int ->
  dst:(int -> int) ->
  payload:(int -> Wire.record) ->
  (int, Fabric.error) result array
(** Write one record per [(dst i, payload i)], [0 <= i < n], as a single
    doorbell-batched verb group, draining each destination's pending
    truncations under one preparation pass. The batch is described by
    indexed accessors so the caller can stage it in reused arena storage
    instead of building a list. Blocks until every record has its hardware
    ack (or failed); results are per-record in order, each the caller's
    own share of consumed log space. [on_complete] fires at each record's
    individual completion instant. With {!Params.doorbell_batching} off,
    falls back to the pre-batching pipeline: parallel single writes, each
    paying full issue + poll. [span] carries the calling transaction's
    blame span down to the batched verb (see
    {!Fabric.one_sided_write_batch_fn}); only the doorbell-batched path
    can claim — the unbatched ablation's writes run in child processes,
    whose time falls to the enclosing phase's default category. *)

val flush_truncations : State.t -> dst:int -> unit
(** Write an explicit TRUNCATE record carrying pending truncations. *)

val reserve_or_flush : State.t -> dst:int -> int -> unit
(** Reserve space, forcing explicit truncation while the log is full
    (liveness, §4). *)

val start_flusher : State.t -> unit
