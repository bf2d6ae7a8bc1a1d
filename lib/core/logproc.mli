(** Receiver-side processing of transaction-log records (§4): LOCK
    (version-checked lock acquisition + reply), COMMIT-PRIMARY (apply in
    place), COMMIT-BACKUP (retain; applied at truncation), ABORT (release
    exactly the locks held), truncation piggybacks, and the
    recovering-transaction evidence diversion of §5.3. *)

val is_recovering : State.t -> Txid.t -> regions_written:int list -> bool
(** §5.3 step 3, receiver side: the coordinator left the configuration or
    a written region changed replicas after the transaction's start
    configuration. *)

val regions_of_record : Wire.log_record -> int list

val record_evidence : State.t -> Txid.t -> Wire.log_record -> unit
(** Merge a record into the machine's recovering-transaction evidence. *)

val release_locks : State.t -> Txid.t -> unit
(** Release exactly the locks the transaction holds on this machine (ABORT
    and ABORT-RECOVERY). *)

val attach : State.t -> Ringlog.t -> unit
(** Install the per-entry processing trigger on an incoming log. *)
