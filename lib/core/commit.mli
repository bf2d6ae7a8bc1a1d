(** The FaRM commit protocol (§4, Figure 4): LOCK, VALIDATE, COMMIT-BACKUP,
    COMMIT-PRIMARY, lazy TRUNCATE — all log writes one-sided, replication
    primary-backup with an unreplicated coordinator, log space reserved up
    front for progress. A configuration change that makes the transaction
    recovering hands control to the recovery protocol's vote/decide
    outcome. *)

val commit : Txn.t -> (unit, Txn.abort_reason) result
(** Drive the full commit protocol for an executed transaction. Reports
    success after at least one COMMIT-PRIMARY hardware ack; truncation
    happens lazily in the background. *)
