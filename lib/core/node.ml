open Farm_sim

(* Message dispatch and machine startup: the event loop of Figure 3's
   per-machine architecture, wiring the fabric's receive path to the
   protocol modules. *)

let dispatch st ~src ~reply (msg : Wire.message) =
  match msg with
  | Wire.Lock_reply { txid; ok; cfg = _; head_ts } -> (
      match Txid.Tbl.find_opt st.State.pending_lock txid with
      | Some lw ->
          let recovering =
            match Txid.Tbl.find_opt st.State.active_txs txid with
            | Some lt -> lt.State.lt_recovering
            | None -> false
          in
          (* coordinators ignore replies for recovering transactions *)
          if not recovering then begin
            lw.State.lw_awaiting <- lw.State.lw_awaiting - 1;
            if head_ts > lw.State.lw_max_ts then lw.State.lw_max_ts <- head_ts;
            if not ok then lw.State.lw_ok <- false;
            if lw.State.lw_awaiting <= 0 || not ok then Ivar.fill_if_empty lw.State.lw_done ()
          end
      | None -> ())
  | Wire.Validate_req { txid; items } ->
      Cpu.exec st.State.cpu
        ~cost:
          (Time.mul_int Params.cpu_validate_per_obj
             (max 1 (List.length items)));
      let ok =
        List.for_all
          (fun ((addr : Addr.t), version) ->
            match State.replica st addr.Addr.region with
            | Some rep when rep.State.role = State.Primary && rep.State.active ->
                Objmem.validate_version rep ~off:addr.Addr.offset ~version
            | _ -> false)
          items
      in
      Comms.reply_to reply (Wire.Validate_reply { txid; ok })
  | Wire.Validate_reply _ -> ()
  | Wire.Need_recovery { cfg; rid; txs } -> Recovery.on_need_recovery st ~src ~reply ~cfg ~rid ~txs
  | Wire.Replicate_tx_state { cfg; rid; txid; lock } ->
      Recovery.on_replicate_tx_state st ~reply ~cfg ~rid ~txid ~lock
  | Wire.Recovery_vote { cfg; rid; txid; regions; vote } ->
      Recovery.on_vote st ~cfg ~rid ~txid ~regions ~vote
  | Wire.Request_vote { cfg; rid; txid } -> Recovery.on_request_vote st ~src ~cfg ~rid ~txid
  | Wire.Commit_recovery { cfg; txid } -> Recovery.on_commit_recovery st ~reply ~cfg ~txid
  | Wire.Abort_recovery { cfg; txid } -> Recovery.on_abort_recovery st ~reply ~cfg ~txid
  | Wire.Truncate_recovery { cfg; txid } -> Recovery.on_truncate_recovery st ~cfg ~txid
  | Wire.Suspect_req { cfg; suspect } ->
      if cfg = st.State.config.Config.id then Cm.handle_suspicion st [ suspect ]
  | Wire.New_config { config; regions } ->
      Membership.apply_new_config st config regions
  | Wire.New_config_ack { cfg } -> (
      match st.State.cm with
      | Some cm -> (
          match cm.State.ack_pending with
          | Some (c, remaining, done_) when c = cfg ->
              remaining := List.filter (fun m -> m <> src) !remaining;
              if !remaining = [] then Ivar.fill_if_empty done_ ()
          | Some _ | None -> ())
      | None -> ())
  | Wire.New_config_commit { cfg } ->
      if Membership.on_config_commit st ~cfg then Recovery.on_config_commit st
  | Wire.Regions_active _ -> Cm.on_regions_active st ~src
  | Wire.All_regions_active { cfg } ->
      if cfg = st.State.config.Config.id then Datarec.on_all_regions_active st
  | Wire.Region_recovered { rid; _ } -> Cm.on_region_recovered st ~rid
  | Wire.Lease_request _ | Wire.Lease_grant_and_request _ | Wire.Lease_grant _ ->
      (* handled on the lease fast path, never here *)
      ()
  | Wire.Alloc_region_req { locality } -> Cm.handle_alloc_region st ~reply ~locality
  | Wire.Alloc_region_reply _ -> ()
  | Wire.Prepare_region { info } -> Cm.handle_prepare_region st ~reply info
  | Wire.Prepare_region_ack _ -> ()
  | Wire.Commit_region { info } -> Cm.handle_commit_region st info
  | Wire.Fetch_mapping { rid } -> Cm.handle_fetch_mapping st ~reply ~rid
  | Wire.Mapping_reply _ -> ()
  | Wire.Block_header { rid; block; obj_size } -> (
      match State.replica st rid with
      | Some rep -> Hashtbl.replace rep.State.block_headers block obj_size
      | None -> ())
  | Wire.Block_headers_sync { rid; headers } -> (
      match State.replica st rid with
      | Some rep ->
          List.iter (fun (b, s) -> Hashtbl.replace rep.State.block_headers b s) headers
      | None -> ())
  | Wire.Alloc_obj_req { rid; size } -> (
      match State.replica st rid with
      | Some rep when rep.State.role = State.Primary && rep.State.active -> (
          match Allocmgr.alloc_obj_local st rep ~size with
          | Some (addr, version) ->
              Comms.reply_to reply (Wire.Alloc_obj_reply { addr = Some addr; version })
          | None -> Comms.reply_to reply (Wire.Alloc_obj_reply { addr = None; version = 0 }))
      | _ -> Comms.reply_to reply (Wire.Alloc_obj_reply { addr = None; version = 0 }))
  | Wire.Free_slot_hint { addr } -> (
      match State.replica st addr.Addr.region with
      | Some rep when rep.State.role = State.Primary ->
          Allocmgr.release_slot rep ~off:addr.Addr.offset
      | _ -> ())
  | Wire.Alloc_obj_reply _ -> ()
  | Wire.App_call { tag; args } ->
      let ok = match st.State.app_handler with Some f -> f ~tag ~args | None -> false in
      Comms.reply_to reply (Wire.App_reply { ok })
  | Wire.App_reply _ -> ()
  | Wire.Watermark_report { cfg; wm } ->
      (* CM side of chain truncation: remember the reporter's watermark and
         release the cluster minimum only once EVERY current member has
         reported — a machine that never reported may still host snapshot
         readers below everyone else's bound. 0 means "do not trim yet". *)
      let cluster_wm =
        if (not (State.is_cm st)) || cfg <> st.State.config.Config.id then 0
        else begin
          let cm = State.ensure_cm st in
          Hashtbl.replace cm.State.cm_wms src wm;
          List.fold_left
            (fun acc m ->
              if acc = 0 then 0
              else
                match Hashtbl.find_opt cm.State.cm_wms m with
                | Some w -> min acc w
                | None -> 0)
            max_int st.State.config.Config.members
        end
      in
      Comms.reply_to reply (Wire.Watermark_update { wm = (if cluster_wm = max_int then 0 else cluster_wm) })
  | Wire.Watermark_update _ -> ()
  | Wire.Ack -> ()

(* Receive path: lease traffic takes its dedicated fast path (§5.1); all
   other messages are charged the RPC receive cost on the machine's shared
   worker threads and dispatched in a fresh process. *)
let on_message st ~src ~reply msg =
  if st.State.alive then begin
    match msg with
    | Wire.Lease_request _ | Wire.Lease_grant_and_request _ | Wire.Lease_grant _ ->
        Lease.handle st ~src msg
    | _ ->
        Cpu.exec_bg ~ctx:st.State.ctx st.State.cpu
          ~cost:Farm_net.Params.default.Farm_net.Params.cpu_rpc_recv (fun () ->
            Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
                dispatch st ~src ~reply msg))
  end

let start st =
  Hashtbl.iter (fun _ log -> Logproc.attach st log) st.State.nv.logs_in;
  Logio.start_flusher st;
  st.State.on_suspect <- (fun suspects -> Cm.handle_suspicion st suspects);
  Farm_net.Fabric.set_handler st.State.fabric st.State.id (fun ~src ~reply msg ->
      on_message st ~src ~reply msg);
  Lease.start st;
  (* Snapshot protocol: the watermark reporter. Every [wm_interval] the
     machine reports min(its active snapshot read timestamps, clock lower
     bound) to the CM and trims its version chains up to the cluster
     minimum the CM releases. Spawned only under the snapshot protocol, so
     the baseline's process schedule is untouched. *)
  if st.State.params.Params.protocol = Params.Snapshot then
    Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
        let rec loop () =
          Proc.sleep Params.wm_interval;
          Proc.check_cancelled ();
          if st.State.alive then begin
            let wm = State.local_watermark st in
            let cfg = st.State.config.Config.id in
            (match
               Comms.call st ~dst:st.State.config.Config.cm ~timeout:(Time.ms 10)
                 (Wire.Watermark_report { cfg; wm })
             with
            | Ok (Wire.Watermark_update { wm }) when wm > 0 ->
                ignore (State.trim_chains st ~wm)
            | Ok _ | Error _ -> ());
            loop ()
          end
        in
        loop ());
  (* Park watchdog. A committing transaction that has made no progress for
     [park_timeout] — orders of magnitude past any normal round trip — lost
     a message to a transient partition (a LOCK reply dropped, say) that
     can heal without an eviction. No configuration change would ever
     classify it as recovering, so nobody would decide it and its locks
     would leak. The coordinator drives the vote/decide machinery itself;
     the decision fills [lt_outcome] and the parked commit defers to it. *)
  Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
      let period = Params.park_timeout in
      let rec loop () =
        Proc.sleep period;
        Proc.check_cancelled ();
        if st.State.alive then begin
          let now = State.now st in
          Txid.Tbl.iter
            (fun txid (lt : State.tx_live) ->
              if
                (not lt.State.lt_recovering)
                && Time.to_ns (Time.sub now lt.State.lt_born) >= Time.to_ns period
              then begin
                lt.State.lt_recovering <- true;
                ignore
                  (Recovery.rec_coord_of st txid ~regions:lt.State.lt_written_regions)
              end)
            st.State.active_txs;
          loop ()
        end
      in
      loop ());
  if State.is_cm st then begin
    ignore (State.ensure_cm st);
    Lease.grant_all st st.State.config.Config.members
  end
