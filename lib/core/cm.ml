open Farm_sim

(* The configuration manager (§3, §5.2).

   The CM allocates regions (a centralized two-phase protocol that enforces
   failure-domain, capacity and locality constraints), manages leases, and
   drives the seven-step reconfiguration protocol. The configuration itself
   lives in the Zookeeper-equivalent store and moves with one atomic
   compare-and-swap per change (vertical Paxos); the CM never relies on the
   coordination service for failure detection or recovery. *)

(* {1 Placement constraints} *)

let constraints st (cm : State.cm_state) ~members =
  let load = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ (info : Wire.region_info) ->
      List.iter
        (fun m ->
          Hashtbl.replace load m (1 + Option.value ~default:0 (Hashtbl.find_opt load m)))
        (info.Wire.primary :: info.Wire.backups))
    cm.State.owners;
  {
    Placement.members;
    domain_of = Config.domain_of st.State.config;
    load_of = (fun m -> Option.value ~default:0 (Hashtbl.find_opt load m));
    capacity_of = (fun _ -> Params.regions_per_machine_cap);
    replication = st.State.params.Params.replication;
  }

(* {1 Region allocation (§3)} *)

(* Two-phase: prepare at all chosen replicas (they allocate NVRAM), then
   commit; the mapping is valid and replicated before it is used. *)
let handle_alloc_region st ~reply ~locality =
  match st.State.cm with
  | None -> Comms.reply_to reply (Wire.Alloc_region_reply { info = None })
  | Some cm -> (
      let colocate =
        Option.bind locality (fun rid -> Hashtbl.find_opt cm.State.owners rid)
        |> Option.map (fun (i : Wire.region_info) -> (i.Wire.primary, i.Wire.backups))
      in
      let cons = constraints st cm ~members:st.State.config.Config.members in
      match Placement.choose cons ?colocate_with:colocate () with
      | None -> Comms.reply_to reply (Wire.Alloc_region_reply { info = None })
      | Some (primary, backups) ->
          let rid = cm.State.next_rid in
          cm.State.next_rid <- rid + 1;
          let cfg = st.State.config.Config.id in
          let info =
            {
              Wire.rid;
              primary;
              backups;
              last_primary_change = cfg;
              last_replica_change = cfg;
              critical = false;
            }
          in
          let replicas = primary :: backups in
          let ok = ref true in
          Comms.par_iter st
            (List.map
               (fun m () ->
                 match
                   Comms.call st ~dst:m ~timeout:(Time.ms 20) (Wire.Prepare_region { info })
                 with
                 | Ok (Wire.Prepare_region_ack { ok = true; _ }) -> ()
                 | Ok _ | Error _ -> ok := false)
               replicas);
          if !ok then begin
            List.iter (fun m -> Comms.send st ~dst:m (Wire.Commit_region { info })) replicas;
            Hashtbl.replace cm.State.owners rid info;
            Int_tbl.replace st.State.region_map rid info;
            Comms.reply_to reply (Wire.Alloc_region_reply { info = Some info })
          end
          else Comms.reply_to reply (Wire.Alloc_region_reply { info = None }))

(* Member-side handlers for the two-phase region allocation. *)
let handle_prepare_region st ~reply (info : Wire.region_info) =
  let role = if info.Wire.primary = st.State.id then State.Primary else State.Backup in
  let rep = State.add_replica st ~rid:info.Wire.rid ~role in
  rep.State.role <- role;
  Int_tbl.replace st.State.region_map info.Wire.rid info;
  Comms.reply_to reply (Wire.Prepare_region_ack { rid = info.Wire.rid; ok = true })

let handle_commit_region st (info : Wire.region_info) =
  match State.replica st info.Wire.rid with
  | Some rep -> State.set_active rep
  | None -> ()

(* {1 Probes (§5.2 step 2)} *)

type probe_result = {
  pr_machine : int;
  pr_replicas : (int * State.role) list;
  pr_infos : (int * int * int) list;  (* rid, last_primary_change, last_replica_change *)
}

let replica_roles (pst : State.t) =
  Hashtbl.fold (fun rid (r : State.replica) acc -> (rid, r.State.role) :: acc) pst.State.nv.replicas []

(* A machine's probe word: its replicas and its region-map change ids. *)
let probe_word (pst : State.t) =
  {
    pr_machine = pst.State.id;
    pr_replicas = replica_roles pst;
    pr_infos =
      Int_tbl.fold
        (fun rid (i : Wire.region_info) acc ->
          (rid, i.Wire.last_primary_change, i.Wire.last_replica_change) :: acc)
        pst.State.region_map [];
  }

(* One-sided RDMA read of each target's probe word. *)
let probe st ~targets =
  let results = ref [] in
  Comms.par_iter st
    (List.map
       (fun m () ->
         match
           Farm_net.Fabric.one_sided_read st.State.fabric ~src:st.State.id ~dst:m ~bytes:64
             (fun () ->
               match State.peer st m with
               | None -> None
               (* a reincarnated machine's probe word carries its new boot
                  epoch: the CM does not count it as the member it probed *)
               | Some pst when pst.State.rejoining -> None
               | Some pst -> Some (probe_word pst))
         with
         | Ok (Some r) -> results := r :: !results
         | Ok None | Error _ -> ())
       targets);
  !results

(* {1 Reconfiguration driver} *)

let wait_acks_or_timeout st (done_ : unit Ivar.t) ~timeout =
  let engine = st.State.engine in
  Proc.suspend (fun resume ->
      let timer = Engine.timer engine ~after:timeout (fun () -> resume (Ok false)) in
      Ivar.on_fill done_ (fun () ->
          Engine.cancel engine timer;
          resume (Ok true)))

let claims machines =
  let claims = Hashtbl.create 64 in
  List.iter
    (fun (machine, replicas) ->
      List.iter
        (fun (rid, role) ->
          let p, bs = match Hashtbl.find_opt claims rid with Some v -> v | None -> (None, []) in
          match role with
          | State.Primary -> Hashtbl.replace claims rid (Some machine, bs)
          | State.Backup -> Hashtbl.replace claims rid (p, machine :: bs))
        replicas)
    machines;
  Hashtbl.filter_map_inplace (fun _ (p, bs) -> Some (p, List.sort_uniq compare bs)) claims;
  claims

(* Rebuild the CM-only region map from probe results — needed when a backup
   CM takes over (the cause of the slower recovery in Figure 11). *)
let rebuild_owners st (cm : State.cm_state) ~probes =
  Hashtbl.reset cm.State.owners;
  (* include the new CM's own replicas and cached infos *)
  let words = probes @ [ probe_word st ] in
  let claims = claims (List.map (fun pr -> (pr.pr_machine, pr.pr_replicas)) words) in
  let change_ids = Hashtbl.create 64 in
  List.iter
    (fun pr ->
      List.iter
        (fun (rid, lpc, lrc) ->
          let lpc0, lrc0 =
            match Hashtbl.find_opt change_ids rid with Some v -> v | None -> (0, 0)
          in
          Hashtbl.replace change_ids rid (max lpc lpc0, max lrc lrc0))
        pr.pr_infos)
    words;
  (* regions known only from cached mappings (every replica died) must
     still be represented so remapping can report them lost *)
  Hashtbl.iter
    (fun rid _ -> if not (Hashtbl.mem claims rid) then Hashtbl.replace claims rid (None, []))
    change_ids;
  Hashtbl.iter
    (fun rid (p, backups) ->
      if cm.State.next_rid <= rid then cm.State.next_rid <- rid + 1;
      let last_primary_change, last_replica_change =
        match Hashtbl.find_opt change_ids rid with Some v -> v | None -> (0, 0)
      in
      (* a dead primary is represented by the -1 sentinel: remapping sees a
         non-member primary and promotes a surviving backup, stamping the
         proper change identifiers *)
      let primary = Option.value p ~default:(-1) in
      Hashtbl.replace cm.State.owners rid
        { Wire.rid; primary; backups; last_primary_change; last_replica_change; critical = false })
    claims

(* A recovery milestone, for the cluster log. *)
let milestone st kind = Farm_obs.Obs.event st.State.obs kind ~a:0 ~b:0 ~c:0

let suspect st m =
  if not (List.mem m st.State.pending_suspects) then
    st.State.pending_suspects <- m :: st.State.pending_suspects

(* Reconfiguration from the probe on (§5.2 steps 2-7), retried until a
   majority answers; must run in a process on this machine. The decisions
   are [Reconfig]'s. *)
let rec attempt_reconfig ?(retry = false) st =
  Proc.check_cancelled ();
  let old = st.State.config in
  let view =
    { Reconfig.self = st.State.id; config = old; suspects = st.State.pending_suspects; retry }
  in
  let probes = probe st ~targets:(Reconfig.probe_targets view) in
  milestone st Farm_obs.Obs.K_ms_probe;
  match Reconfig.after_probe view ~answered:(List.map (fun p -> p.pr_machine) probes) with
  | Reconfig.Retry { cleared } ->
      st.State.pending_suspects <-
        List.filter (fun m -> not (List.mem m cleared)) st.State.pending_suspects;
      Proc.sleep (Time.ms 5);
      attempt_reconfig ~retry:true st
  | Reconfig.Propose responders -> (
      (* 3. Atomically advance the configuration in the coordination
         service; only one machine can win configuration c+1. *)
      match Farm_coord.Zk.read st.State.zk with
      | None ->
          Proc.sleep (Time.ms 2);
          attempt_reconfig st
      | Some (_, cur) when Reconfig.moved_on view ~zk_id:cur.Config.id ->
          st.State.reconfig_active <- false
      | Some (seq, _) -> (
          let new_id = old.Config.id + 1 in
          let new_config =
            Config.make ~id:new_id ~members:responders ~domains:old.Config.domains
              ~cm:st.State.id
          in
          match Farm_coord.Zk.compare_and_swap st.State.zk ~expected_seq:seq new_config with
          | Error _ ->
              (* lost the race; wait for the winner's NEW-CONFIG *)
              st.State.reconfig_active <- false
          | Ok _ ->
              milestone st Farm_obs.Obs.K_ms_zookeeper;
              let was_cm = old.Config.cm = st.State.id in
              if (not was_cm) && not st.State.params.Params.incremental_cm_state then
                (* a new CM must first build the CM-only data structures;
                   with the §6.4 suggested optimization every machine keeps
                   them incrementally and the rebuild disappears *)
                Cpu.exec st.State.cpu ~cost:Params.cpu_cm_rebuild;
              let cm = State.ensure_cm st in
              if not was_cm then rebuild_owners st cm ~probes;
              (* 4. Remap regions of failed machines. *)
              let r =
                Reconfig.remap (constraints st cm ~members:responders) cm.State.owners ~new_id
              in
              List.iter
                (fun (rid, info) -> Hashtbl.replace cm.State.owners rid info)
                r.Reconfig.infos;
              List.iter
                (fun rid ->
                  Hashtbl.remove cm.State.owners rid;
                  Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_ms_region_lost ~a:rid ~b:0 ~c:0)
                r.Reconfig.lost;
              cm.State.pending_data_recovery <-
                cm.State.pending_data_recovery + List.length r.Reconfig.fresh;
              cm.State.regions_active_from <- [];
              cm.State.all_active_sent <- false;
              st.State.pending_suspects <- [];
              Lease.grant_all st responders;
              let regions =
                Hashtbl.fold (fun _ info acc -> info :: acc) cm.State.owners []
              in
              (* 5. Send NEW-CONFIG to every member (this machine included:
                 the member-side application is uniform). *)
              let remaining = ref responders in
              let done_ = Ivar.create () in
              cm.State.ack_pending <- Some (new_id, remaining, done_);
              milestone st Farm_obs.Obs.K_ms_new_config;
              List.iter
                (fun m ->
                  Comms.send st ~dst:m
                    (Wire.New_config { config = new_config; regions }))
                responders;
              (* 7. Commit after all ACKs (machines that fail to ack get
                 suspected and trigger another round). Evicted machines'
                 leases have already expired — that is what got them
                 evicted — so there is nothing further to wait for. *)
              let acked =
                wait_acks_or_timeout st done_
                  ~timeout:Params.reconfig_ack_timeout
              in
              cm.State.ack_pending <- None;
              if not acked then begin
                List.iter (suspect st)
                  (Reconfig.unacked_suspects ~self:st.State.id !remaining);
                attempt_reconfig st
              end
              else begin
                List.iter
                  (fun m -> Comms.send st ~dst:m (Wire.New_config_commit { cfg = new_id }))
                  responders;
                milestone st Farm_obs.Obs.K_ms_config_commit;
                st.State.reconfig_active <- false
              end))

(* Entry point for suspicions (lease expiry, failed probes, explicit
   SUSPECT messages): record them, then act on [Reconfig.on_suspicion]. *)
let handle_suspicion st suspects =
  if not st.State.rejoining then begin
    let fresh = List.filter (fun m -> not (List.mem m st.State.pending_suspects)) suspects in
    List.iter (suspect st) suspects;
    if fresh <> [] then begin
      List.iter
        (fun m -> Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_suspect ~a:m ~b:0 ~c:0)
        fresh;
      milestone st Farm_obs.Obs.K_ms_suspect
    end;
    let old_id = st.State.config.Config.id in
    let spawn fn = Proc.spawn ~ctx:st.State.ctx st.State.engine fn in
    let start () =
      if not st.State.reconfig_active then begin
        st.State.reconfig_active <- true;
        spawn (fun () -> attempt_reconfig st)
      end
    in
    let suspect_req suspect = Wire.Suspect_req { cfg = old_id; suspect } in
    match Reconfig.on_suspicion ~self:st.State.id st.State.config ~suspects with
    | Reconfig.Start -> start ()
    | Reconfig.Start_after stagger ->
        spawn (fun () ->
            Proc.sleep stagger;
            if st.State.config.Config.id = old_id then start ())
    | Reconfig.Escalate { backup; wait } ->
        spawn (fun () ->
            Option.iter
              (fun b -> Comms.send st ~dst:b (suspect_req st.State.config.Config.cm))
              backup;
            Proc.sleep wait;
            if st.State.config.Config.id = old_id then start ())
    | Reconfig.Report ->
        spawn (fun () ->
            List.iter
              (fun m -> Comms.send st ~dst:st.State.config.Config.cm (suspect_req m))
              suspects)
  end

(* {1 Post-recovery bookkeeping at the CM} *)

let on_regions_active st ~src =
  match st.State.cm with
  | None -> ()
  | Some cm ->
      if not (List.mem src cm.State.regions_active_from) then
        cm.State.regions_active_from <- src :: cm.State.regions_active_from;
      if
        (not cm.State.all_active_sent)
        && List.for_all
             (fun m -> List.mem m cm.State.regions_active_from)
             st.State.config.Config.members
      then begin
        cm.State.all_active_sent <- true;
        milestone st Farm_obs.Obs.K_ms_all_active;
        List.iter
          (fun m ->
            Comms.send st ~dst:m (Wire.All_regions_active { cfg = st.State.config.Config.id }))
          st.State.config.Config.members
      end

let on_region_recovered st ~rid:_ =
  match st.State.cm with
  | None -> ()
  | Some cm ->
      cm.State.pending_data_recovery <- cm.State.pending_data_recovery - 1;
      milestone st Farm_obs.Obs.K_ms_region_recovered;
      if cm.State.pending_data_recovery <= 0 then milestone st Farm_obs.Obs.K_ms_data_rec_done

let handle_fetch_mapping st ~reply ~rid =
  let info =
    match st.State.cm with
    | Some cm -> Hashtbl.find_opt cm.State.owners rid
    | None -> Int_tbl.find_opt st.State.region_map rid
  in
  Comms.reply_to reply (Wire.Mapping_reply { info })
