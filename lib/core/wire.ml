(* All log-record types (Table 1) and message types (Table 2) of the FaRM
   transaction protocol, plus the reconfiguration, lease, region-management
   and allocator messages described in §3 and §5. *)

type alloc_op = Alloc_none | Alloc_set | Alloc_clear

type write_item = {
  addr : Addr.t;
  version : int;  (* version observed at read; the lock target *)
  value : bytes;  (* new object data *)
  alloc_op : alloc_op;
  ts : int;
      (* snapshot protocol: the write's global-time commit timestamp. 0 in
         LOCK records (the coordinator picks the timestamp only after all
         locks are granted) and in the validate-at-commit protocol;
         COMMIT-BACKUP records rebuild their items with the real value *)
}

(* Payload shared by LOCK and COMMIT-BACKUP records: transaction id, the ids
   of all regions written by the transaction, and the written objects the
   destination holds a replica of. *)
type lock_payload = {
  txid : Txid.t;
  regions_written : int list;
  writes : write_item list;
}

type record =
  | Lock of lock_payload
  | Commit_backup of lock_payload
  | Commit_primary of { txid : Txid.t; ts : int }
      (* ts: the commit timestamp the primary installs (0 in the
         validate-at-commit protocol, whose versions are the only order) *)
  | Abort of Txid.t
  | Truncate_marker

(* Every log record piggybacks the writer thread's truncation information:
   identifiers to truncate and the low bound on its non-truncated
   transaction ids. *)
type log_record = {
  payload : record;
  truncations : Txid.t list;
  low_bound : int;
  cfg : int;  (* configuration in which the record was written *)
}

(* What a replica knows about a recovering transaction; the evidence that
   drives the voting rules of §5.3 step 6 (see Evidence). Immutable: a
   NEED-RECOVERY message carries a snapshot of the sender's evidence. *)
type tx_evidence = {
  ev_txid : Txid.t;
  ev_regions : int list;  (* regions written by the transaction *)
  ev_saw : int;  (* record types seen, a bitset of Evidence.saw_* *)
  ev_payload : lock_payload option;  (* lock-record contents, if held *)
}

type vote =
  | Vote_commit_primary
  | Vote_commit_backup
  | Vote_lock
  | Vote_abort
  | Vote_truncated
  | Vote_unknown

let pp_vote ppf v =
  Fmt.string ppf
    (match v with
    | Vote_commit_primary -> "commit-primary"
    | Vote_commit_backup -> "commit-backup"
    | Vote_lock -> "lock"
    | Vote_abort -> "abort"
    | Vote_truncated -> "truncated"
    | Vote_unknown -> "unknown")

type region_info = {
  rid : int;
  primary : int;
  backups : int list;
  last_primary_change : int;  (* configuration id *)
  last_replica_change : int;
  critical : bool;
      (* the region is down to a single surviving replica: data recovery
         for it runs aggressively instead of paced (§6.4) *)
}

type message =
  (* normal-case transaction protocol *)
  | Lock_reply of { txid : Txid.t; ok : bool; cfg : int; head_ts : int }
    (* head_ts: snapshot protocol — the largest commit timestamp among the
       objects this reply just locked at the primary, so the coordinator's
       write timestamp provably exceeds every version it overwrites; 0
       otherwise. Locks serialize same-object writers, so this is exact. *)
  | Validate_req of { txid : Txid.t; items : (Addr.t * int) list }
  | Validate_reply of { txid : Txid.t; ok : bool }
  (* transaction state recovery (Table 2) *)
  | Need_recovery of { cfg : int; rid : int; txs : tx_evidence list }
  | Replicate_tx_state of { cfg : int; rid : int; txid : Txid.t; lock : lock_payload }
  | Recovery_vote of {
      cfg : int;
      rid : int;
      txid : Txid.t;
      regions : int list;
      vote : vote;
    }
  | Request_vote of { cfg : int; rid : int; txid : Txid.t }
  | Commit_recovery of { cfg : int; txid : Txid.t }
  | Abort_recovery of { cfg : int; txid : Txid.t }
  | Truncate_recovery of { cfg : int; txid : Txid.t }
  (* reconfiguration (§5.2) *)
  | Suspect_req of { cfg : int; suspect : int }
  | New_config of { config : Config.t; regions : region_info list }
  | New_config_ack of { cfg : int }
  | New_config_commit of { cfg : int }
  | Regions_active of { cfg : int }
  | All_regions_active of { cfg : int }
  | Region_recovered of { cfg : int; rid : int }
  (* leases (§5.1): a lease is an interval starting when the granter sent
     it, so grants carry their send time — a grant that sat in a shared
     queue arrives already stale *)
  | Lease_request of { cfg : int; sent_ns : int }
  | Lease_grant_and_request of { cfg : int; sent_ns : int }
  | Lease_grant of { cfg : int; sent_ns : int }
  (* region allocation (§3) *)
  | Alloc_region_req of { locality : int option }
  | Alloc_region_reply of { info : region_info option }
  | Prepare_region of { info : region_info }
  | Prepare_region_ack of { rid : int; ok : bool }
  | Commit_region of { info : region_info }
  | Fetch_mapping of { rid : int }
  | Mapping_reply of { info : region_info option }
  (* allocator (§5.5) *)
  | Block_header of { rid : int; block : int; obj_size : int }
  | Block_headers_sync of { rid : int; headers : (int * int) list }
  | Alloc_obj_req of { rid : int; size : int }
  | Alloc_obj_reply of { addr : Addr.t option; version : int }
  | Free_slot_hint of { addr : Addr.t }
  (* application-level function shipping (the TATP single-field-update
     optimization of §6.2 ships the update to the object's primary) *)
  | App_call of { tag : int; args : int array }
  | App_reply of { ok : bool }
  (* snapshot protocol: cluster low-watermark for version-chain truncation.
     Machines report min(own active snapshot read-ts, clock lo) to the CM;
     the CM replies with the cluster-wide minimum once every member has
     reported, and the reporter trims its chains up to it. *)
  | Watermark_report of { cfg : int; wm : int }
  | Watermark_update of { wm : int }
  (* generic *)
  | Ack

(* Wire-size estimates for the NIC cost model. *)

let write_item_bytes w = 12 + 8 + 8 + Bytes.length w.value + 2

let lock_payload_bytes p =
  16 + (4 * List.length p.regions_written)
  + List.fold_left (fun acc w -> acc + write_item_bytes w) 0 p.writes

(* Trace support: a payload's record tag — the wire identity used by the
   flight recorder and by {!Farm_obs.Tracer.flow_id} — and the transaction
   id it carries. A record's sender and its remote processor derive the
   same flow id from these, so the causal arrows need no extra wire
   fields. *)
let payload_tag = function
  | Lock _ -> 0
  | Commit_backup _ -> 1
  | Commit_primary _ -> 2
  | Abort _ -> 3
  | Truncate_marker -> 4

let payload_txid = function
  | Lock p | Commit_backup p -> Some p.txid
  | Commit_primary { txid; _ } -> Some txid
  | Abort id -> Some id
  | Truncate_marker -> None

(* The flow id linking one record's append at [Txid.machine] to its
   processing at [dst]; 0 (= no flow) for marker records. *)
let record_flow payload ~dst =
  match payload_txid payload with
  | None -> 0
  | Some (id : Txid.t) ->
      Farm_obs.Tracer.flow_id ~machine:id.Txid.machine ~thread:id.Txid.thread
        ~local:id.Txid.local ~tag:(payload_tag payload) ~dst

let payload_bytes = function
  | Lock p | Commit_backup p -> 16 + lock_payload_bytes p
  | Commit_primary _ -> 40
  | Abort _ -> 32
  | Truncate_marker -> 24

let record_bytes r = payload_bytes r.payload + (16 * List.length r.truncations) + 8

(* Record sizes computed without materializing the record: the commit path
   reserves log space for every LOCK / COMMIT-BACKUP / COMMIT-PRIMARY
   record before building any of them, and building throwaway payloads
   just to measure them was a per-commit allocation. Must mirror
   [payload_bytes] + the [record_bytes] trailer. *)
let lock_record_base_bytes ~nregions ~writes_bytes =
  16 + (16 + (4 * nregions) + writes_bytes) + 8

(* Covers the larger COMMIT-PRIMARY (40) so one reservation size fits every
   control record; the residue is unreserved when the commit settles. *)
let ctl_record_base_bytes = 40 + 8

let evidence_bytes e =
  24
  + (4 * List.length e.ev_regions)
  + (match e.ev_payload with Some p -> lock_payload_bytes p | None -> 0)

let message_bytes = function
  | Lock_reply _ -> 40
  | Validate_req { items; _ } -> 24 + (20 * List.length items)
  | Validate_reply _ -> 32
  | Need_recovery { txs; _ } ->
      24 + List.fold_left (fun acc e -> acc + evidence_bytes e) 0 txs
  | Replicate_tx_state { lock; _ } -> 40 + lock_payload_bytes lock
  | Recovery_vote { regions; _ } -> 40 + (4 * List.length regions)
  | Request_vote _ -> 32
  | Commit_recovery _ | Abort_recovery _ | Truncate_recovery _ -> 28
  | Suspect_req _ -> 16
  | New_config { config; regions; _ } ->
      64 + (12 * Config.size config) + (32 * List.length regions)
  | New_config_ack _ | New_config_commit _ -> 16
  | Regions_active _ | All_regions_active _ | Region_recovered _ -> 16
  | Lease_request _ | Lease_grant_and_request _ | Lease_grant _ -> 16
  | Alloc_region_req _ | Alloc_region_reply _ -> 48
  | Prepare_region _ | Prepare_region_ack _ | Commit_region _ -> 48
  | Fetch_mapping _ | Mapping_reply _ -> 48
  | Block_header _ -> 24
  | Block_headers_sync { headers; _ } -> 16 + (8 * List.length headers)
  | Alloc_obj_req _ | Alloc_obj_reply _ | Free_slot_hint _ -> 32
  | App_call { args; _ } -> 16 + (8 * Array.length args)
  | App_reply _ -> 16
  | Watermark_report _ -> 24
  | Watermark_update _ -> 16
  | Ack -> 8
