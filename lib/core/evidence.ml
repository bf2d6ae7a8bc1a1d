(* The rules of transaction-state recovery (§5.3) as pure functions over
   immutable evidence: what one log record says about a recovering
   transaction, how two pieces of evidence combine, how a replica votes
   from its evidence, and how the recovery coordinator decides from the
   votes. Every source of evidence — a drained log record, a record
   diverted during processing, a peer's NEED-RECOVERY report, a
   REPLICATE-TX-STATE lock, the resident records read for a vote request —
   goes through [of_record] and [merge], so they cannot disagree. *)

let saw_lock = 1
let saw_commit_backup = 2
let saw_commit_primary = 4
let saw_abort = 8
let saw_commit_recovery = 16
let saw_abort_recovery = 32

let saw ev flag = ev.Wire.ev_saw land flag <> 0

let empty txid = { Wire.ev_txid = txid; ev_regions = []; ev_saw = 0; ev_payload = None }

(* A machine can hold different lock payloads for one transaction — as
   primary of one written region and backup of another — so evidence must
   union the write items by address rather than keep whichever record it
   examined first. Losing items here leaks locks and loses committed writes
   at recovery time. On duplicate addresses the item with the larger commit
   timestamp wins: a COMMIT-BACKUP item (ts = the real write timestamp)
   beats the LOCK item of the same write (ts 0), so a snapshot-mode
   recovery installs the timestamp the coordinator actually chose. *)
let merge_payloads (a : Wire.lock_payload) (b : Wire.lock_payload) =
  let writes =
    List.fold_left
      (fun acc (w : Wire.write_item) ->
        if
          List.exists
            (fun (x : Wire.write_item) ->
              Addr.equal x.Wire.addr w.Wire.addr && x.Wire.ts >= w.Wire.ts)
            acc
        then acc
        else
          w
          :: List.filter
               (fun (x : Wire.write_item) -> not (Addr.equal x.Wire.addr w.Wire.addr))
               acc)
      a.Wire.writes b.Wire.writes
  in
  {
    Wire.txid = a.Wire.txid;
    regions_written = List.sort_uniq Int.compare (a.Wire.regions_written @ b.Wire.regions_written);
    writes;
  }

let of_record txid (r : Wire.record) =
  let held flag (p : Wire.lock_payload) =
    { Wire.ev_txid = txid; ev_regions = p.regions_written; ev_saw = flag; ev_payload = Some p }
  in
  match r with
  | Lock p -> held saw_lock p
  | Commit_backup p -> held saw_commit_backup p
  | Commit_primary _ -> { (empty txid) with Wire.ev_saw = saw_commit_primary }
  | Abort _ -> { (empty txid) with Wire.ev_saw = saw_abort }
  | Truncate_marker -> empty txid

(* The first non-empty region list wins; flags union; payloads merge. *)
let merge (a : Wire.tx_evidence) (b : Wire.tx_evidence) =
  {
    a with
    Wire.ev_regions = (if a.Wire.ev_regions = [] then b.Wire.ev_regions else a.Wire.ev_regions);
    ev_saw = a.Wire.ev_saw lor b.Wire.ev_saw;
    ev_payload =
      (match (a.Wire.ev_payload, b.Wire.ev_payload) with
      | None, p | p, None -> p
      | Some p0, Some p -> Some (merge_payloads p0 p));
  }

let of_records txid records =
  List.fold_left
    (fun ev (r : Wire.log_record) -> merge ev (of_record txid r.Wire.payload))
    (empty txid) records

let add tbl (ev : Wire.tx_evidence) =
  let txid = ev.Wire.ev_txid in
  let merged = match Txid.Tbl.find_opt tbl txid with Some e -> merge e ev | None -> ev in
  Txid.Tbl.replace tbl txid merged;
  merged

let mark tbl txid flag =
  match Txid.Tbl.find_opt tbl txid with
  | Some e -> Txid.Tbl.replace tbl txid { e with Wire.ev_saw = e.Wire.ev_saw lor flag }
  | None -> ()

(* {1 Lock recovery and log-record replication (§5.3 steps 4-5)} *)

let writes_to ev ~rid =
  match ev.Wire.ev_payload with
  | None -> []
  | Some p ->
      List.filter (fun (w : Wire.write_item) -> w.Wire.addr.Addr.region = rid) p.Wire.writes

(* The defect of ROADMAP.md item 1 (see the .mli): any payload credits,
   whatever region it writes. The first path's fix is
   [writes_to ev ~rid <> []]. *)
let credits ev ~rid:_ = ev.Wire.ev_payload <> None

let replicate_to ev ~backups ~credited =
  if ev.Wire.ev_payload = None then []
  else List.filter (fun b -> not (List.mem (b, ev.Wire.ev_txid) credited)) backups

(* §5.3 step 6. *)
let vote ev =
  if saw ev saw_commit_primary || saw ev saw_commit_recovery then Wire.Vote_commit_primary
  else if saw ev saw_abort_recovery then Wire.Vote_abort
  else if saw ev saw_commit_backup then Wire.Vote_commit_backup
  else if saw ev saw_lock then Wire.Vote_lock
  else Wire.Vote_abort

(* §5.3 step 7. *)
let decide votes =
  if List.mem (Some Wire.Vote_commit_primary) votes then Some true
  else if List.for_all Option.is_some votes then
    let vs = List.filter_map Fun.id votes in
    Some
      (List.mem Wire.Vote_commit_backup vs
      && List.for_all
           (function
             | Wire.Vote_lock | Wire.Vote_commit_backup | Wire.Vote_truncated -> true
             | Wire.Vote_commit_primary | Wire.Vote_abort | Wire.Vote_unknown -> false)
           vs)
  else None
