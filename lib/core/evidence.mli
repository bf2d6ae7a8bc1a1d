(** The rules of transaction-state recovery (§5.3) as pure functions.

    Evidence ({!Wire.tx_evidence}) is an immutable value: which record types
    a replica has seen for a recovering transaction (a bitset of the [saw_*]
    flags), the regions it wrote, and the union of its lock payloads. Every
    source of evidence — a drained or diverted log record, a peer's
    NEED-RECOVERY report, a REPLICATE-TX-STATE lock, the resident records
    read for a vote request — is turned into a value by {!of_record} and
    combined by {!merge}. *)

(** {1 Record-type flags} *)

val saw_lock : int
val saw_commit_backup : int
val saw_commit_primary : int
val saw_abort : int
val saw_commit_recovery : int
val saw_abort_recovery : int

(** {1 Building and combining evidence} *)

val empty : Txid.t -> Wire.tx_evidence
(** No regions, no flags, no payload. *)

val of_record : Txid.t -> Wire.record -> Wire.tx_evidence
(** What one log record says: its type's flag, and for LOCK and
    COMMIT-BACKUP its written regions and payload. *)

val merge : Wire.tx_evidence -> Wire.tx_evidence -> Wire.tx_evidence
(** Flags union; the first non-empty region list wins; payloads union
    their write items by address (on a duplicate address the larger commit
    timestamp wins, so a COMMIT-BACKUP item beats the LOCK item's ts 0) and
    their written regions. Keeps the first argument's transaction id. *)

val of_records : Txid.t -> Wire.log_record list -> Wire.tx_evidence
(** {!merge} of {!of_record} over the records, from {!empty}. *)

(** {1 A machine's evidence table} *)

val add : Wire.tx_evidence Txid.Tbl.t -> Wire.tx_evidence -> Wire.tx_evidence
(** Merge the evidence into the table's entry for its transaction (creating
    it) and return the merged value. *)

val mark : Wire.tx_evidence Txid.Tbl.t -> Txid.t -> int -> unit
(** Set a flag on the transaction's entry, if it has one. *)

(** {1 Lock recovery and log-record replication} *)

val writes_to : Wire.tx_evidence -> rid:int -> Wire.write_item list
(** The payload's writes to region [rid], in payload order ([[]] without
    a payload): what a primary locks for the transaction in lock recovery
    (§5.3 step 4), or installs if the decision is already known. *)

val credits : Wire.tx_evidence -> rid:int -> bool
(** Does a backup's NEED-RECOVERY evidence for region [rid] credit it with
    holding the transaction, so that step 5 does not replicate it there?
    Today: whenever the evidence carries a payload, whatever region the
    payload writes. That is the lock-recovery replication defect of
    ROADMAP.md item 1: a payload that writes only another region credits a
    backup that lacks [rid]'s writes. *)

val replicate_to : Wire.tx_evidence -> backups:int list -> credited:(int * Txid.t) list -> int list
(** §5.3 step 5: the [backups], in order, that lack the transaction — no
    [(backup, txid)] pair of [credited] names them with it. [[]] when the
    evidence has no payload to replicate. *)

(** {1 Vote and decide} *)

val vote : Wire.tx_evidence -> Wire.vote
(** A replica's vote (§5.3 step 6): commit-primary if it saw COMMIT-PRIMARY
    or COMMIT-RECOVERY; else commit-backup if it saw COMMIT-BACKUP and no
    ABORT-RECOVERY; else lock if it saw LOCK and no ABORT-RECOVERY; else
    abort. *)

val decide : Wire.vote option list -> bool option
(** The recovery coordinator's decision (§5.3 step 7) from the votes of the
    written regions ([None] = not yet voted): [Some true] (commit) on any
    commit-primary vote, or when every region voted, at least one
    commit-backup and the rest in {lock, commit-backup, truncated};
    [Some false] (abort) when every region voted otherwise; [None] while a
    vote is missing. *)
