open Farm_sim

(* Transaction state recovery (§5.3, Figure 6):

     1. block access to recovering regions   (done at NEW-CONFIG, Membership)
     2. drain logs
     3. find recovering transactions
     4. lock recovery                        (region becomes active)
     5. replicate log records to backups
     6. vote                                 (primaries -> coordinator)
     7. decide                               (coordinator -> replicas)

   Work is distributed: draining runs per machine, steps 3-6 per region,
   and step 7 per recovering transaction, so recovery time is dominated by
   the in-flight transaction count, not the data size. *)

(* A vote's code in the K_rec_vote event. *)
let vote_tag = function
  | Wire.Vote_commit_primary -> 0
  | Wire.Vote_commit_backup -> 1
  | Wire.Vote_lock -> 2
  | Wire.Vote_abort -> 3
  | Wire.Vote_truncated -> 4
  | Wire.Vote_unknown -> 5

(* {1 Recovery-coordinator side (steps 6-7)} *)

(* The transaction's original coordinator if still a member, else the
   consistent-hash replacement every primary agrees on. *)
let coordinator_for st txid =
  if Config.is_member st.State.config txid.Txid.machine then txid.Txid.machine
  else Config.recovery_coordinator st.State.config txid

(* Push a decided outcome to every replica of every written region, then
   truncate (§5.3 step 7). Retries until every replica acknowledges,
   re-resolving the replica sets through the CM each round: a replica
   unreachable right now — plausibly behind the very partition that made
   recovery necessary — would keep its locks past the heal, with no later
   drain to release them. The handlers are idempotent, so re-delivery to an
   already-acked replica is harmless; evicted machines drop out of the
   mapping. [rc_pushing] keeps re-sent votes from piling up loops. *)
let push_decision st (rc : State.rec_coord) outcome =
  if not rc.State.rc_pushing then begin
    rc.State.rc_pushing <- true;
    let txid = rc.State.rc_txid in
    let cfg = st.State.config.Config.id in
    let msg =
      match outcome with
      | State.Committed -> Wire.Commit_recovery { cfg; txid }
      | State.Aborted -> Wire.Abort_recovery { cfg; txid }
    in
    Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
        Fun.protect
          ~finally:(fun () -> rc.State.rc_pushing <- false)
          (fun () ->
            let rec push () =
              Proc.check_cancelled ();
              if st.State.alive then begin
                let targets =
                  List.sort_uniq compare
                    (List.concat_map
                       (fun rid ->
                         match Txn.ensure_mapping st rid ~retries:10 with
                         | Some info -> info.Wire.primary :: info.Wire.backups
                         | None -> [])
                       rc.State.rc_regions)
                in
                let all_acked = ref (targets <> []) in
                Comms.par_iter st
                  (List.map
                     (fun m () ->
                       match Comms.call st ~dst:m ~timeout:(Time.ms 10) msg with
                       | Ok _ -> ()
                       | Error _ -> all_acked := false)
                     targets);
                if !all_acked then
                  List.iter
                    (fun m ->
                      Comms.send st ~dst:m (Wire.Truncate_recovery { cfg; txid }))
                    targets
                else begin
                  Proc.sleep (Time.ms 1);
                  push ()
                end
              end
            in
            push ()))
  end

(* Decide (§5.3 step 7). *)
let decide st (rc : State.rec_coord) outcome =
  if not rc.State.rc_decided then begin
    rc.State.rc_decided <- true;
    let txid = rc.State.rc_txid in
    Txid.Tbl.replace st.State.recovered_outcomes txid outcome;
    let dur = Time.sub (State.now st) rc.State.rc_created in
    Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_rec_decide
      ~a:(match outcome with State.Committed -> 1 | State.Aborted -> 0)
      ~b:(Time.to_ns dur) ~c:0;
    (match Txid.Tbl.find_opt st.State.active_txs txid with
    | Some lt -> Ivar.fill_if_empty lt.State.lt_outcome outcome
    | None -> ());
    push_decision st rc outcome
  end

let try_decide st (rc : State.rec_coord) =
  if not rc.State.rc_decided && rc.State.rc_regions <> [] then
    match
      Evidence.decide (List.map (fun r -> List.assoc_opt r rc.State.rc_votes) rc.State.rc_regions)
    with
    | Some true -> decide st rc State.Committed
    | Some false -> decide st rc State.Aborted
    | None -> ()

(* The coordinator requests votes from primaries that stay silent past the
   vote timeout (250 us), repeatedly until the transaction is decided. *)
let start_vote_requester st (rc : State.rec_coord) =
  Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
      let rec loop () =
        Proc.sleep Params.vote_timeout;
        Proc.check_cancelled ();
        if not rc.State.rc_decided then begin
          let cfg = st.State.config.Config.id in
          List.iter
            (fun rid ->
              if not (List.mem_assoc rid rc.State.rc_votes) then
                match State.region_info st rid with
                | Some info ->
                    Comms.send st ~dst:info.Wire.primary
                      (Wire.Request_vote { cfg; rid; txid = rc.State.rc_txid })
                | None -> ())
            rc.State.rc_regions;
          loop ()
        end
      in
      loop ())

let rec_coord_of st txid ~regions =
  match Txid.Tbl.find_opt st.State.rec_coords txid with
  | Some rc ->
      if rc.State.rc_regions = [] && regions <> [] then rc.State.rc_regions <- regions;
      rc
  | None ->
      let rc =
        {
          State.rc_txid = txid;
          rc_votes = [];
          rc_regions = regions;
          rc_decided = false;
          rc_pushing = false;
          rc_created = State.now st;
        }
      in
      Txid.Tbl.replace st.State.rec_coords txid rc;
      start_vote_requester st rc;
      rc

(* A live coordinator hitting a failed log append decides the transaction
   itself instead of collecting votes: it owns the outcome until it fails
   (abort before the commit point, commit once every COMMIT-BACKUP record is
   acked), and pre-drain votes would be under-informed — a primary's
   resident log cannot see COMMIT-BACKUP records held by its backups. The
   decision enters the same push/retransmit machinery as a voted one. *)
let coordinator_decide st txid ~regions outcome =
  let rc = rec_coord_of st txid ~regions in
  if not rc.State.rc_decided then decide st rc outcome

let on_vote st ~cfg ~rid ~txid ~regions ~vote =
  if cfg = st.State.config.Config.id then begin
    Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_rec_vote ~a:rid ~b:(vote_tag vote)
      ~c:0;
    let rc = rec_coord_of st txid ~regions in
    if rc.State.rc_decided then begin
      (* primaries re-send votes until they see the decision, so a vote for
         an already-decided transaction means the voter missed the push (it
         was unreachable then): the vote doubles as a retransmit request *)
      match Txid.Tbl.find_opt st.State.recovered_outcomes txid with
      | Some outcome -> push_decision st rc outcome
      | None -> ()
    end
    else begin
      if not (List.mem_assoc rid rc.State.rc_votes) then
        rc.State.rc_votes <- (rid, vote) :: rc.State.rc_votes;
      try_decide st rc
    end
  end

(* {1 Primary side (steps 3-6)} *)

let maybe_regions_active st (rs : State.recovery_state) =
  if not rs.State.rs_regions_active_sent then begin
    let all_active =
      Hashtbl.fold
        (fun _ (rep : State.replica) acc ->
          acc && ((not (rep.State.role = State.Primary)) || rep.State.active))
        st.State.nv.replicas true
    in
    if all_active then begin
      rs.State.rs_regions_active_sent <- true;
      Comms.send st ~dst:st.State.config.Config.cm
        (Wire.Regions_active { cfg = rs.State.rs_cfg })
    end
  end

let on_need_recovery st ~src ~reply ~cfg ~rid ~txs =
  match st.State.recovery with
  | Some rs when rs.State.rs_cfg = cfg ->
      let rr = State.region_recovery rs rid in
      List.iter
        (fun (ev : Wire.tx_evidence) ->
          ignore (Evidence.add rs.State.rs_local ev);
          let txid = ev.Wire.ev_txid in
          rr.State.rr_txs <- Txid.Set.add txid rr.State.rr_txs;
          if Evidence.credits ev ~rid && not (List.mem (src, txid) rr.State.rr_credited) then
            rr.State.rr_credited <- (src, txid) :: rr.State.rr_credited)
        txs;
      if not (List.mem src rr.State.rr_heard) then rr.State.rr_heard <- src :: rr.State.rr_heard;
      Comms.reply_to reply Wire.Ack
  | _ ->
      (* not in this configuration (yet): no ack — the backup retries until
         this machine's configuration catches up *)
      ()

(* The writes that land at this machine's replicas in [role], with their
   replica. A decision push can arrive several times; installs are
   idempotent. *)
let writes_held_as st role writes =
  List.filter_map
    (fun (w : Wire.write_item) ->
      match State.replica st w.Wire.addr.Addr.region with
      | Some rep when rep.State.role = role -> Some (rep, w)
      | _ -> None)
    writes

(* Lock recovery, log-record replication, and voting for one region this
   machine is primary of (§5.3 steps 4-6). *)
let primary_recover_region st (rs : State.recovery_state) rid =
  let t0 = State.now st in
  let cfg = rs.State.rs_cfg in
  let rep = State.replica_exn st rid in
  let rr = State.region_recovery rs rid in
  let backups_of () =
    match State.region_info st rid with Some i -> i.Wire.backups | None -> []
  in
  (* wait for NEED-RECOVERY from every backup of the new configuration *)
  let rec wait_backups () =
    Proc.check_cancelled ();
    if st.State.config.Config.id <> cfg then ()
    else begin
      if List.for_all (fun b -> List.mem b rr.State.rr_heard) (backups_of ()) then ()
      else begin
        Proc.sleep (Time.us 100);
        wait_backups ()
      end
    end
  in
  wait_backups ();
  if st.State.config.Config.id = cfg then begin
    let txs = rr.State.rr_txs in
    (* 4. lock every object modified by a recovering transaction *)
    Txid.Set.iter
      (fun txid ->
        Cpu.exec st.State.cpu ~cost:Params.cpu_recovery_per_tx;
        (* a decision reached through another written region can land during
           the yield above: its COMMIT/ABORT-RECOVERY already released this
           transaction, so locking now would leak *)
        match Txid.Tbl.find_opt st.State.recovered_outcomes txid with
        | Some State.Committed -> (
            (* the decision outran the promotion: its push recorded the
               outcome while this machine was still a backup, which applies
               nothing. Apply here, before the region goes active — leaving
               it to the next push round would serve the object's
               pre-commit version, unlocked, to new transactions *)
            match Txid.Tbl.find_opt rs.State.rs_local txid with
            | Some ev ->
                List.iter
                  (fun (rep, w) -> Objmem.install st rep w)
                  (writes_held_as st State.Primary (Evidence.writes_to ev ~rid))
            | None -> ())
        | Some State.Aborted -> ()
        | None -> (
        match Txid.Tbl.find_opt rs.State.rs_local txid with
        | Some ev ->
            let held = List.filter (Objmem.recovery_lock rep) (Evidence.writes_to ev ~rid) in
            if held <> [] then begin
              let prev =
                match Txid.Tbl.find_opt st.State.locks_held txid with
                | Some l -> l
                | None -> []
              in
              let fresh =
                List.filter
                  (fun (w : Wire.write_item) ->
                    not
                      (List.exists
                         (fun (p : Wire.write_item) -> Addr.equal p.Wire.addr w.Wire.addr)
                         prev))
                  held
              in
              Txid.Tbl.replace st.State.locks_held txid (fresh @ prev)
            end
        | None -> ()))
      txs;
    (* the region becomes active: transactions can use it again, in
       parallel with the rest of recovery *)
    State.set_active rep;
    let dur = Time.sub (State.now st) t0 in
    Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_rec_region_active ~a:rid
      ~b:(Time.to_ns dur) ~c:0;
    maybe_regions_active st rs;
    (* 5. replicate lock records to backups that miss them *)
    Txid.Set.iter
      (fun txid ->
        match Txid.Tbl.find_opt rs.State.rs_local txid with
        | Some ({ ev_payload = Some p; _ } as ev) ->
            Comms.par_iter st
              (List.map
                 (fun b () ->
                   ignore
                     (Comms.call st ~dst:b ~timeout:(Time.ms 10)
                        (Wire.Replicate_tx_state { cfg; rid; txid; lock = p })))
                 (Evidence.replicate_to ev ~backups:(backups_of ())
                    ~credited:rr.State.rr_credited))
        | Some _ | None -> ())
      txs;
    (* 6. vote — re-sent until the decision arrives: a vote can land while
       its recipient is still committing the new configuration (and be
       rejected as stale), and when the original coordinator is dead the
       consistent-hash replacement only learns of the transaction from the
       votes themselves. *)
    let send_votes () =
      Txid.Set.fold
        (fun txid pending ->
          if Txid.Tbl.mem st.State.recovered_outcomes txid then pending
          else
            match Txid.Tbl.find_opt rs.State.rs_local txid with
            | Some ev ->
                let vote = Evidence.vote ev in
                let coord = coordinator_for st txid in
                Comms.send st ~dst:coord
                  (Wire.Recovery_vote
                     { cfg; rid; txid; regions = ev.Wire.ev_regions; vote });
                pending + 1
            | None -> pending)
        txs 0
    in
    ignore (send_votes ());
    Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
        let rec loop () =
          Proc.sleep (Time.ms 1);
          Proc.check_cancelled ();
          if st.State.config.Config.id = cfg && send_votes () > 0 then loop ()
        in
        loop ())
  end

(* {1 Drain and entry point (step 2)} *)

let is_recovering_live st cfg (lt : State.tx_live) =
  lt.State.lt_txid.Txid.config < cfg
  && (List.exists
        (fun rid ->
          match State.region_info st rid with
          | Some i -> i.Wire.last_replica_change > lt.State.lt_txid.Txid.config
          | None -> true)
        lt.State.lt_written_regions
     || List.exists
          (fun rid ->
            match State.region_info st rid with
            | Some i -> i.Wire.last_primary_change > lt.State.lt_txid.Txid.config
            | None -> true)
          lt.State.lt_read_regions)

let run st (rs : State.recovery_state) =
  let t0 = State.now st in
  let cfg = rs.State.rs_cfg in
  (* 2. Drain: wait for every in-flight (non-blocked) record processor to
     finish, then examine all resident records for recovering-transaction
     evidence. NICs ack writes regardless of configuration, so this is the
     only way to guarantee every relevant record is seen. *)
  let rec wait_quiesce () =
    Proc.check_cancelled ();
    if st.State.inflight - st.State.inflight_blocked > 0 then begin
      Proc.sleep (Time.us 20);
      wait_quiesce ()
    end
  in
  wait_quiesce ();
  if st.State.config.Config.id = cfg then begin
    Cpu.exec st.State.cpu ~cost:(Time.us 50);
    Hashtbl.iter
      (fun _ log ->
        Ringlog.iter_resident log (fun txid records ->
            let regions =
              List.concat_map (fun r -> Logproc.regions_of_record r) records
              |> List.sort_uniq compare
            in
            if Logproc.is_recovering st txid ~regions_written:regions then
              List.iter (fun r -> Logproc.record_evidence st txid r) records))
      st.State.nv.logs_in;
    let dur = Time.sub (State.now st) t0 in
    Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_rec_drain ~a:cfg ~b:(Time.to_ns dur)
      ~c:0;
    (* 3a. register local evidence with the regions it affects *)
    Txid.Tbl.iter
      (fun txid (ev : Wire.tx_evidence) ->
        List.iter
          (fun rid ->
            match State.replica st rid with
            | Some rep when rep.State.role = State.Primary ->
                let rr = State.region_recovery rs rid in
                rr.State.rr_txs <- Txid.Set.add txid rr.State.rr_txs
            | _ -> ())
          ev.Wire.ev_regions)
      rs.State.rs_local;
    (* coordinator side: in-flight transactions that became recovering stop
       accepting completions and wait for the vote outcome *)
    Txid.Tbl.iter
      (fun txid (lt : State.tx_live) ->
        if (not lt.State.lt_recovering) && is_recovering_live st cfg lt then begin
          lt.State.lt_recovering <- true;
          ignore (rec_coord_of st txid ~regions:lt.State.lt_written_regions)
        end)
      st.State.active_txs;
    (* reset stale votes of still-undecided recovery coordinations *)
    Txid.Tbl.iter
      (fun _ (rc : State.rec_coord) -> if not rc.State.rc_decided then rc.State.rc_votes <- [])
      st.State.rec_coords;
    (* 3b. backups report recovering transactions to the (new) primaries —
       re-sent until acknowledged: the report can land while the primary is
       still committing the new configuration (and be dropped as stale),
       which would otherwise park its lock recovery forever *)
    Hashtbl.iter
      (fun rid (rep : State.replica) ->
        if rep.State.role = State.Backup then begin
          let txs =
            Txid.Tbl.fold
              (fun _ (ev : Wire.tx_evidence) acc ->
                if List.mem rid ev.Wire.ev_regions then ev :: acc else acc)
              rs.State.rs_local []
          in
          Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
              let rec loop () =
                Proc.check_cancelled ();
                if st.State.config.Config.id = cfg then
                  (* resolve through the CM each attempt: a just-assigned
                     backup may not have the region's mapping cached yet *)
                  match Txn.ensure_mapping st rid ~retries:5 with
                  | None ->
                      Proc.sleep (Time.us 200);
                      loop ()
                  | Some info -> (
                      match
                        Comms.call st ~dst:info.Wire.primary ~timeout:(Time.ms 1)
                          (Wire.Need_recovery { cfg; rid; txs })
                      with
                      | Ok _ -> ()
                      | Error _ ->
                          Proc.sleep (Time.us 200);
                          loop ())
              in
              loop ())
        end)
      st.State.nv.replicas;
    (* 4-6. per primary region, in parallel *)
    Hashtbl.iter
      (fun rid (rep : State.replica) ->
        if rep.State.role = State.Primary then
          Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
              primary_recover_region st rs rid))
      st.State.nv.replicas;
    maybe_regions_active st rs
  end

let on_config_commit st =
  let rs =
    {
      State.rs_cfg = st.State.config.Config.id;
      rs_local = Txid.Tbl.create 64;
      rs_regions = Int_tbl.create 16;
      rs_regions_active_sent = false;
    }
  in
  st.State.recovery <- Some rs;
  Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () -> run st rs)

(* {1 Replica-side handlers for recovery messages} *)

let on_replicate_tx_state st ~reply ~cfg ~rid:_ ~txid ~lock =
  (match st.State.recovery with
  | Some rs when rs.State.rs_cfg = cfg ->
      ignore (Evidence.add rs.State.rs_local (Evidence.of_record txid (Wire.Lock lock)))
  | _ -> ());
  Comms.reply_to reply Wire.Ack

(* Evidence for [txid] synthesized from this machine's resident log
   records — the same merge a drain performs, on demand. A vote request can
   arrive without any drain having run (the coordinator's park watchdog
   starts recovery after a transient partition that heals without a
   configuration change); answering Vote_unknown while a COMMIT-PRIMARY
   record sits resident here would let the coordinator abort a transaction
   another region already applied. *)
let resident_evidence st (txid : Txid.t) =
  match Hashtbl.find_opt st.State.nv.State.logs_in txid.Txid.machine with
  | None -> None
  | Some log -> (
      match Ringlog.resident_records log txid with
      | [] -> None
      | records -> Some (Evidence.of_records txid records))

(* Evidence a drain (or a later record, report or decision) merged here. *)
let drained_evidence st txid =
  match st.State.recovery with
  | Some rs -> Txid.Tbl.find_opt rs.State.rs_local txid
  | None -> None

let on_request_vote st ~src ~cfg ~rid ~txid =
  if cfg = st.State.config.Config.id then begin
    (* a decision already applied here outranks any log evidence: voting
       from the resident records after COMMIT/ABORT-RECOVERY was processed
       would let a second coordinator re-litigate a settled transaction *)
    match Txid.Tbl.find_opt st.State.recovered_outcomes txid with
    | Some outcome ->
        let vote =
          match outcome with
          | State.Committed -> Wire.Vote_commit_primary
          | State.Aborted -> Wire.Vote_abort
        in
        Comms.send st ~dst:src (Wire.Recovery_vote { cfg; rid; txid; regions = []; vote })
    | None ->
        let ev =
          match drained_evidence st txid with
          | Some _ as ev -> ev
          | None -> resident_evidence st txid
        in
        let vote, regions =
          match ev with
          | Some ev -> (Evidence.vote ev, ev.Wire.ev_regions)
          | None ->
              if State.is_truncated st txid then (Wire.Vote_truncated, [])
              else (Wire.Vote_unknown, [])
        in
        Comms.send st ~dst:src (Wire.Recovery_vote { cfg; rid; txid; regions; vote })
  end

let evidence_payload st txid =
  match drained_evidence st txid with
  | Some { Wire.ev_payload = Some _ as p; _ } -> p
  | Some _ | None ->
      (* no drain merged a payload for this transaction (watchdog-initiated
         recovery without a configuration change): the resident records are
         the evidence *)
      Option.bind (resident_evidence st txid) (fun ev -> ev.Wire.ev_payload)

(* COMMIT-RECOVERY: like COMMIT-PRIMARY at a primary (apply in place),
   like COMMIT-BACKUP at a backup (just record it). *)
let on_commit_recovery st ~reply ~cfg:_ ~txid =
  Txid.Tbl.replace st.State.recovered_outcomes txid State.Committed;
  Option.iter
    (fun rs -> Evidence.mark rs.State.rs_local txid Evidence.saw_commit_recovery)
    st.State.recovery;
  (match evidence_payload st txid with
  | Some p ->
      List.iter
        (fun (rep, w) -> Objmem.install st rep w)
        (writes_held_as st State.Primary p.Wire.writes);
      Txid.Tbl.remove st.State.locks_held txid
  | None -> ());
  Comms.reply_to reply Wire.Ack

let on_abort_recovery st ~reply ~cfg:_ ~txid =
  Txid.Tbl.replace st.State.recovered_outcomes txid State.Aborted;
  Option.iter
    (fun rs -> Evidence.mark rs.State.rs_local txid Evidence.saw_abort_recovery)
    st.State.recovery;
  Logproc.release_locks st txid;
  Comms.reply_to reply Wire.Ack

(* TRUNCATE-RECOVERY: backups apply the updates (like normal truncation),
   then everyone drops the transaction's records. *)
let on_truncate_recovery st ~cfg:_ ~txid =
  (match Txid.Tbl.find_opt st.State.recovered_outcomes txid with
  | Some State.Committed -> (
      match evidence_payload st txid with
      | Some p ->
          List.iter
            (fun (rep, w) -> Objmem.install st rep w)
            (writes_held_as st State.Backup p.Wire.writes)
      | None -> ())
  | Some State.Aborted | None -> ());
  (match Hashtbl.find_opt st.State.nv.logs_in txid.Txid.machine with
  | Some log -> ignore (Ringlog.truncate log st.State.engine txid)
  | None -> ());
  State.mark_truncated st txid
