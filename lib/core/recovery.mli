
(** Transaction state recovery (§5.3, Figure 6): drain logs, find
    recovering transactions, lock recovery (after which regions re-activate
    and normal transactions proceed in parallel), log-record replication,
    voting, and the coordinator's decide step. The rules themselves —
    evidence, crediting a backup, step 5's targets, vote and decide — are
    {!Evidence}'s, and every write is installed by {!Objmem.install}; this
    module moves evidence and votes between machines and acts on the
    decision. *)

val on_config_commit : State.t -> unit
(** Start recovery for the just-committed configuration (spawned from the
    NEW-CONFIG-COMMIT handler). *)

val rec_coord_of : State.t -> Txid.t -> regions:int list -> State.rec_coord
(** The (idempotent) recovery coordinator for [txid], created on first use
    with a vote requester driving the written [regions] to a decision. Also
    used by the coordinator's park watchdog: a transaction parked on a reply
    lost to a transient partition cannot rely on the ensuing reconfiguration
    to classify it as recovering (the suspect may heal, or the new
    configuration may keep every written region's replica set), so the
    watchdog drives the decision itself. *)

val coordinator_decide : State.t -> Txid.t -> regions:int list -> State.outcome -> unit
(** Record the outcome a live coordinator decided after a failed log append
    (abort before the commit point, commit once every COMMIT-BACKUP record
    is acked) and push it to the written [regions]' replicas until every one
    acknowledges. No votes are collected: pre-drain votes come from resident
    primary logs alone and cannot see the backups' COMMIT-BACKUP records.
    No-op if a decision for [txid] already exists. *)

(** {1 Message handlers (wired by Node)} *)

val on_need_recovery :
  State.t ->
  src:int ->
  reply:(bytes:int -> Wire.message -> unit) ->
  cfg:int ->
  rid:int ->
  txs:Wire.tx_evidence list ->
  unit

val on_vote :
  State.t -> cfg:int -> rid:int -> txid:Txid.t -> regions:int list -> vote:Wire.vote -> unit

val on_request_vote : State.t -> src:int -> cfg:int -> rid:int -> txid:Txid.t -> unit

val on_replicate_tx_state :
  State.t ->
  reply:(bytes:int -> Wire.message -> unit) ->
  cfg:int ->
  rid:int ->
  txid:Txid.t ->
  lock:Wire.lock_payload ->
  unit

val on_commit_recovery :
  State.t -> reply:(bytes:int -> Wire.message -> unit) -> cfg:int -> txid:Txid.t -> unit
(** Processed like COMMIT-PRIMARY at a primary (apply in place), like
    COMMIT-BACKUP at a backup. *)

val on_abort_recovery :
  State.t -> reply:(bytes:int -> Wire.message -> unit) -> cfg:int -> txid:Txid.t -> unit

val on_truncate_recovery : State.t -> cfg:int -> txid:Txid.t -> unit
