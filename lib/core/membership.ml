(* Member-side application of a new configuration (§5.2 steps 6-7).

   Precise membership is the replacement for server-side lease checks that
   one-sided RDMA makes impossible: once a machine applies configuration c
   it stops issuing requests to non-members and ignores completions from
   them; writes to regions whose primary moved are blocked until lock
   recovery re-activates them. *)

let apply_new_config st (config : Config.t) (regions : Wire.region_info list) =
  (* A reincarnated machine must not resume membership in a configuration
     whose probe round predates its crash: stay silent so the CM's ack
     timeout suspects and evicts it, turning the failure into a
     configuration change that transaction recovery can observe. *)
  if st.State.rejoining && Config.is_member config st.State.id then ()
  else if config.Config.id >= st.State.config.Config.id then begin
    let first_time = config.Config.id > st.State.config.Config.id in
    if first_time then begin
      Farm_obs.Obs.incr st.State.obs Farm_obs.Obs.C_reconfig;
      Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_new_config ~a:config.Config.id
        ~b:(List.length config.Config.members) ~c:config.Config.cm;
      st.State.config <- config;
      Farm_sim.Int_tbl.reset st.State.region_map;
      List.iter
        (fun (i : Wire.region_info) -> Farm_sim.Int_tbl.replace st.State.region_map i.Wire.rid i)
        regions;
      (* start blocking requests from external clients until commit *)
      st.State.blocked <- true;
      List.iter
        (fun (info : Wire.region_info) ->
          let is_primary = info.Wire.primary = st.State.id in
          let is_backup = List.mem st.State.id info.Wire.backups in
          match State.replica st info.Wire.rid with
          | Some rep ->
              if is_primary then begin
                if rep.State.role = State.Backup then begin
                  (* promoted: block access until lock recovery completes
                     (§5.3 step 1) and schedule allocator recovery (§5.5) *)
                  rep.State.role <- State.Primary;
                  State.set_inactive rep;
                  rep.State.free_lists_valid <- false
                end
              end
              else if is_backup then rep.State.role <- State.Backup
          | None ->
              if is_primary || is_backup then begin
                (* a freshly-assigned replica: zeroed NVRAM, to be filled
                   by data recovery (§5.4) *)
                let role = if is_primary then State.Primary else State.Backup in
                let rep = State.add_replica st ~rid:info.Wire.rid ~role in
                rep.State.fresh_backup <- true;
                State.set_active rep
              end)
        regions;
      if config.Config.cm <> st.State.id then st.State.cm <- None;
      (* NEW-CONFIG acts as a lease reset from the (possibly new) CM *)
      st.State.lease.State.last_grant_from_cm <- State.now st;
      st.State.lease.State.cm_suspected <- false;
      st.State.reconfig_active <- false;
      Hashtbl.reset st.State.pending_suspects
    end;
    Comms.send st ~dst:config.Config.cm (Wire.New_config_ack { cfg = config.Config.id })
  end

(* NEW-CONFIG-COMMIT: unblock external requests; new primaries immediately
   synchronize block headers with their backups (§5.5). Transaction-state
   recovery proper is started by the caller (Node). *)
let on_config_commit st ~cfg =
  if cfg = st.State.config.Config.id then begin
    Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_config_commit ~a:cfg ~b:0 ~c:0;
    st.State.blocked <- false;
    Hashtbl.iter
      (fun _ (rep : State.replica) ->
        if rep.State.role = State.Primary && not rep.State.free_lists_valid then
          Allocmgr.sync_block_headers st rep)
      st.State.nv.replicas;
    true
  end
  else false
