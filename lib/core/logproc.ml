open Farm_sim

(* Receiver-side processing of transaction-log records (§4 steps 1, 4, 5
   and the recovering-transaction evidence collection of §5.3 step 3).

   Every DMA'd entry is processed by its own process under the machine's
   context, charged to the machine's CPU. The commit protocol orders the
   records that need ordering (see Ringlog); truncations are deferred while
   their transaction still has unprocessed records. *)

(* Is this transaction recovering in the current configuration (§5.3
   step 3)? True when its coordinator left the configuration or any written
   region changed replicas after the transaction's start configuration.
   (The read-region condition is evaluated by the coordinator itself, which
   is the only machine that knows the read set.) *)
let is_recovering st (txid : Txid.t) ~regions_written =
  txid.Txid.config < st.State.config.Config.id
  && ((not (Config.is_member st.State.config txid.Txid.machine))
     || List.exists
          (fun rid ->
            match State.region_info st rid with
            | Some info -> info.Wire.last_replica_change > txid.Txid.config
            | None -> true)
          regions_written)

let regions_of_record (r : Wire.log_record) =
  match r.payload with
  | Lock p | Commit_backup p -> p.regions_written
  | Commit_primary _ | Abort _ | Truncate_marker -> []

(* Merge a record into the machine's recovering-transaction evidence. *)
let record_evidence st txid (r : Wire.log_record) =
  match st.State.recovery with
  | None -> ()
  | Some rs ->
      let e =
        match Txid.Tbl.find_opt rs.rs_local txid with
        | Some e -> e
        | None ->
            let e =
              {
                Wire.ev_txid = txid;
                ev_regions = [];
                ev_saw = Wire.saw_nothing ();
                ev_payload = None;
              }
            in
            Txid.Tbl.replace rs.rs_local txid e;
            e
      in
      let e =
        match (e.Wire.ev_regions, regions_of_record r) with
        | [], (_ :: _ as regions) ->
            let e' = { e with Wire.ev_regions = regions } in
            Txid.Tbl.replace rs.rs_local txid e';
            e'
        | _ -> e
      in
      let e =
        match (e.Wire.ev_payload, r.payload) with
        | None, (Lock p | Commit_backup p) ->
            let e' = { e with Wire.ev_payload = Some p } in
            Txid.Tbl.replace rs.rs_local txid e';
            e'
        | Some p0, (Lock p | Commit_backup p) ->
            let e' = { e with Wire.ev_payload = Some (Payloads.merge_payloads p0 p) } in
            Txid.Tbl.replace rs.rs_local txid e';
            e'
        | Some _, (Commit_primary _ | Abort _ | Truncate_marker) -> e
        | None, (Commit_primary _ | Abort _ | Truncate_marker) -> e
      in
      (match r.payload with
      | Lock _ -> e.Wire.ev_saw.saw_lock <- true
      | Commit_backup _ -> e.Wire.ev_saw.saw_commit_backup <- true
      | Commit_primary _ -> e.Wire.ev_saw.saw_commit_primary <- true
      | Abort _ -> e.Wire.ev_saw.saw_abort <- true
      | Truncate_marker -> ())

(* {1 Truncation at the receiver (§4 step 5)} *)

let deferred_set st ~log_sender =
  match Int_tbl.find_opt st.State.deferred_trunc log_sender with
  | Some s -> s
  | None ->
      let s = ref Txid.Set.empty in
      Int_tbl.replace st.State.deferred_trunc log_sender s;
      s

(* Apply a truncation: backups apply the buffered updates to their region
   copies at truncation time; then the records are dropped and their space
   freed. Deferred if the transaction still has unprocessed entries. *)
let apply_truncation st log txid =
  if Ringlog.pending_count log txid > 0 then begin
    Farm_obs.Obs.incr st.State.obs Farm_obs.Obs.C_log_trunc_deferred;
    let s = deferred_set st ~log_sender:(Ringlog.sender log) in
    s := Txid.Set.add txid !s
  end
  else begin
    Farm_obs.Obs.incr st.State.obs Farm_obs.Obs.C_log_trunc;
    Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_log_trunc ~a:txid.Txid.machine
      ~b:txid.Txid.local ~c:0;
    let records = Ringlog.resident_records log txid in
    List.iter
      (fun (r : Wire.log_record) ->
        match r.Wire.payload with
        | Commit_backup p ->
            List.iter
              (fun (w : Wire.write_item) ->
                match State.replica st w.Wire.addr.Addr.region with
                | Some rep -> ignore (Objmem.apply_write rep w)
                | None -> ())
              p.Wire.writes
        | Lock _ | Commit_primary _ | Abort _ | Truncate_marker -> ())
      records;
    ignore (Ringlog.truncate log st.State.engine txid);
    State.mark_truncated st txid
  end

let retry_deferred_truncation st log txid =
  let s = deferred_set st ~log_sender:(Ringlog.sender log) in
  if Txid.Set.mem txid !s && Ringlog.pending_count log txid = 0 then begin
    s := Txid.Set.remove txid !s;
    apply_truncation st log txid
  end

(* {1 Record processing} *)


let items_cost per_obj items = Time.mul_int per_obj (max 1 (List.length items))

let process_lock st log ~sender (e : Ringlog.entry) (p : Wire.lock_payload) =
  let record = e.Ringlog.record in
  (* group the written objects by region and wait for all regions to be
     active (they are inactive only during lock recovery, §5.3 step 1) *)
  let rids =
    List.sort_uniq Int.compare
      (List.map (fun w -> w.Wire.addr.Addr.region) p.Wire.writes)
  in
  let reps = List.filter_map (fun rid -> State.replica st rid) rids in
  if List.exists (fun (r : State.replica) -> not r.State.active) reps then begin
    st.State.inflight_blocked <- st.State.inflight_blocked + 1;
    List.iter State.await_active reps;
    st.State.inflight_blocked <- st.State.inflight_blocked - 1
  end;
  let t_lock = Time.to_ns (Engine.now st.State.engine) in
  Cpu.exec st.State.cpu ~cost:(items_cost st.State.params.Params.cpu_lock_per_obj p.Wire.writes);
  (* attempt to lock every object at its expected version *)
  let rec lock_all acquired = function
    | [] -> (true, acquired)
    | w :: rest -> (
        match State.replica st w.Wire.addr.Addr.region with
        | Some rep when Objmem.try_lock rep w -> lock_all ((rep, w) :: acquired) rest
        | _ -> (false, acquired))
  in
  (* A LOCK record may be processed after this transaction's ABORT (records
     of one sender can be reordered across its NICs), or resume from the
     region-activation wait above after recovery already decided the
     transaction: never lock in either case. *)
  if
    State.is_truncated st p.Wire.txid
    || Txid.Tbl.mem st.State.recovered_outcomes p.Wire.txid
  then Ringlog.discard log st.State.engine e
  else begin
    let ok, acquired = lock_all [] p.Wire.writes in
    Farm_obs.Obs.incr st.State.obs
      (if ok then Farm_obs.Obs.C_lock_ok else Farm_obs.Obs.C_lock_fail);
    if not ok then List.iter (fun (rep, w) -> Objmem.unlock rep w) acquired
    else Txid.Tbl.replace st.State.locks_held p.Wire.txid p.Wire.writes;
    (* snapshot protocol: the largest head commit timestamp among the
       objects just locked — exact, because the locks serialize same-object
       writers — so the coordinator's write timestamp provably exceeds
       every version it overwrites *)
    let head_ts =
      if not ok then 0
      else
        List.fold_left
          (fun acc ((rep : State.replica), (w : Wire.write_item)) ->
            match rep.State.vc with
            | Some vc -> max acc (Verchain.head_ts vc ~off:w.Wire.addr.Addr.offset)
            | None -> acc)
          0 acquired
    in
    Ringlog.retain log e;
    let id = p.Wire.txid in
    Farm_obs.Tracer.slice_tx
      (Farm_obs.Obs.tracer st.State.obs)
      ~tid:(Farm_obs.Tracer.tid_log ~sender)
      ~step:(if ok then Farm_obs.Tracer.T_lock_grant else Farm_obs.Tracer.T_lock_refuse)
      ~start:t_lock ~arg:(List.length p.Wire.writes) ~txm:id.Txid.machine
      ~txt:id.Txid.thread ~txl:id.Txid.local;
    (* tag 5 = lock-reply; distinct from record tags 0-4 so the reply's
       flow id never collides with the LOCK record's *)
    let flow =
      Farm_obs.Tracer.flow_id ~machine:id.Txid.machine ~thread:id.Txid.thread
        ~local:id.Txid.local ~tag:5 ~dst:sender
    in
    Comms.send st ~flow ~dst:sender
      (Wire.Lock_reply { txid = p.Wire.txid; ok; cfg = record.Wire.cfg; head_ts })
  end

let process_commit_primary st log (e : Ringlog.entry) txid ~ts =
  (* The LOCK record is resident in the same log (processed before the
     coordinator could write COMMIT-PRIMARY). Its items carry no write
     timestamp (the coordinator chose one only after the locks), so the
     COMMIT-PRIMARY record's [ts] is what the primary installs. *)
  let payload =
    List.find_map
      (fun (r : Wire.log_record) ->
        match r.Wire.payload with Lock p -> Some p | _ -> None)
      (Ringlog.resident_records log txid)
  in
  (match payload with
  | Some p ->
      Cpu.exec st.State.cpu
        ~cost:(items_cost st.State.params.Params.cpu_commit_per_obj p.Wire.writes);
      List.iter
        (fun (w : Wire.write_item) ->
          match State.replica st w.Wire.addr.Addr.region with
          | Some rep ->
              let applied = Objmem.apply_write ~ts rep w in
              (* a committed free returns the slot to the primary's slab
                 (only on first application) *)
              if applied && w.Wire.alloc_op = Wire.Alloc_clear && rep.State.role = State.Primary
              then Allocmgr.release_slot st rep ~off:w.Wire.addr.Addr.offset
          | None -> ())
        p.Wire.writes;
      Txid.Tbl.remove st.State.locks_held txid
  | None -> ());
  Ringlog.retain log e

let process_abort st log (e : Ringlog.entry) txid =
  (* release exactly the locks this transaction holds, then drop its
     records *)
  (match Txid.Tbl.find_opt st.State.locks_held txid with
  | Some writes ->
      List.iter
        (fun (w : Wire.write_item) ->
          match State.replica st w.Wire.addr.Addr.region with
          | Some rep -> Objmem.unlock rep w
          | None -> ())
        writes;
      Txid.Tbl.remove st.State.locks_held txid
  | None -> ());
  ignore (Ringlog.truncate log st.State.engine txid);
  State.mark_truncated st txid;
  Ringlog.discard log st.State.engine e

(* Entry point: called (as a fresh process under the machine's context) for
   every entry DMA'd into one of this machine's logs. *)
let payload_tag = Wire.payload_tag

(* Trace slice covering this record's whole processing on the "log from
   m<sender>" track, closing the flow its append opened. *)
let trace_process st ~sender ~t0 payload =
  let tracer = Farm_obs.Obs.tracer st.State.obs in
  if Farm_obs.Tracer.enabled tracer then
    let tid = Farm_obs.Tracer.tid_log ~sender in
    let tag = Wire.payload_tag payload in
    match Wire.payload_txid payload with
    | None ->
        Farm_obs.Tracer.slice tracer ~tid ~step:Farm_obs.Tracer.T_log_process ~start:t0
          ~arg:tag
    | Some (id : Txid.t) ->
        Farm_obs.Tracer.slice_flow tracer ~tid ~step:Farm_obs.Tracer.T_log_process
          ~start:t0 ~arg:tag ~txm:id.Txid.machine ~txt:id.Txid.thread
          ~txl:id.Txid.local
          ~flow_in:(Wire.record_flow payload ~dst:st.State.id)
          ~flow_out:0

let process_entry st log (e : Ringlog.entry) =
  let record = e.Ringlog.record in
  let sender = Ringlog.sender log in
  let t0 = Time.to_ns (Engine.now st.State.engine) in
  Cpu.exec st.State.cpu ~cost:st.State.params.Params.cpu_log_poll;
  Farm_obs.Obs.incr st.State.obs Farm_obs.Obs.C_log_record;
  Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_log_record ~a:sender
    ~b:(payload_tag record.Wire.payload) ~c:0;
  (* piggybacked truncation information *)
  (match Ringlog.txid_of_record record with
  | Some txid ->
      State.update_low_bound st ~coord:(Txid.coord_id txid) record.Wire.low_bound
  | None -> ());
  List.iter (fun txid -> apply_truncation st log txid) record.Wire.truncations;
  (match Ringlog.txid_of_record record with
  | None -> Ringlog.discard log st.State.engine e (* marker *)
  | Some txid ->
      let recovering = is_recovering st txid ~regions_written:(regions_of_record record) in
      if Txid.Tbl.mem st.State.recovered_outcomes txid then
        (* late record for a transaction recovery already decided *)
        Ringlog.discard log st.State.engine e
      else if recovering then begin
        (* evidence only; recovery owns this transaction (§5.3) *)
        record_evidence st txid record;
        Ringlog.retain log e
      end
      else begin
        match record.Wire.payload with
        | Lock p -> process_lock st log ~sender e p
        | Commit_backup _ -> Ringlog.retain log e
        | Commit_primary { txid; ts } -> process_commit_primary st log e txid ~ts
        | Abort txid -> process_abort st log e txid
        | Truncate_marker -> Ringlog.discard log st.State.engine e
      end;
      retry_deferred_truncation st log txid);
  trace_process st ~sender ~t0 record.Wire.payload

(* Install the processing trigger on an incoming log. *)
let attach st log =
  Ringlog.set_on_append log (fun log e ->
      st.State.inflight <- st.State.inflight + 1;
      Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
          Fun.protect
            ~finally:(fun () -> st.State.inflight <- st.State.inflight - 1)
            (fun () -> process_entry st log e)))
