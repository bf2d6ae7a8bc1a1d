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

(* One-sided RDMA read of the target's probe word: its replicas and its
   region-map change ids. *)
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
               | Some pst ->
                   let replicas =
                     Hashtbl.fold
                       (fun rid (r : State.replica) acc -> (rid, r.State.role) :: acc)
                       pst.State.nv.replicas []
                   in
                   let infos =
                     Int_tbl.fold
                       (fun rid (i : Wire.region_info) acc ->
                         (rid, i.Wire.last_primary_change, i.Wire.last_replica_change) :: acc)
                       pst.State.region_map []
                   in
                   Some
                     {
                       pr_machine = m;
                       pr_replicas = replicas;
                       pr_infos = infos;
                     })
         with
         | Ok (Some r) -> results := r :: !results
         | Ok None | Error _ -> ())
       targets);
  !results

(* {1 Remapping (§5.2 step 4)} *)

(* Reassign regions that lost replicas: always promote a surviving backup
   when the primary failed (fast recovery), and re-replicate to restore f+1
   subject to failure-domain and capacity constraints. Returns the new
   region infos, the fresh (machine, rid) assignments needing bulk data
   recovery, and any regions that lost all replicas. *)
let remap st (cm : State.cm_state) ~members ~new_id =
  let fresh = ref [] and lost = ref [] and updates = ref [] in
  let cons = constraints st cm ~members in
  Hashtbl.iter
    (fun rid (info : Wire.region_info) ->
      let primary_alive = List.mem info.Wire.primary members in
      let surviving_backups = List.filter (fun b -> List.mem b members) info.Wire.backups in
      let survivors =
        (if primary_alive then [ info.Wire.primary ] else []) @ surviving_backups
      in
      if survivors = [] then lost := rid :: !lost
      else begin
        let primary, rest, primary_changed =
          if primary_alive then (info.Wire.primary, surviving_backups, false)
          else
            match surviving_backups with
            | b :: rest -> (b, rest, true)
            | [] -> assert false
        in
        let total = 1 + List.length info.Wire.backups in
        let changed = List.length survivors <> total in
        let needed = st.State.params.Params.replication - List.length survivors in
        let replacements =
          if needed > 0 then
            match Placement.choose_replacements cons ~survivors ~needed with
            | Some l -> l
            | None -> []
          else []
        in
        List.iter (fun m -> fresh := (m, rid) :: !fresh) replacements;
        let info' =
          {
            info with
            Wire.primary;
            backups = rest @ replacements;
            last_primary_change =
              (if primary_changed then new_id else info.Wire.last_primary_change);
            last_replica_change =
              (if changed || replacements <> [] then new_id else info.Wire.last_replica_change);
            (* down to one survivor: re-replicate aggressively (§6.4) *)
            critical = List.length survivors = 1;
          }
        in
        updates := (rid, info') :: !updates
      end)
    cm.State.owners;
  List.iter (fun (rid, info) -> Hashtbl.replace cm.State.owners rid info) !updates;
  List.iter (fun rid -> Hashtbl.remove cm.State.owners rid) !lost;
  (!fresh, !lost)

(* {1 Reconfiguration driver} *)

let wait_acks_or_timeout st (done_ : unit Ivar.t) ~timeout =
  let engine = st.State.engine in
  Proc.suspend (fun resume ->
      let timer = Engine.timer engine ~after:timeout (fun () -> resume (Ok false)) in
      Ivar.on_fill done_ (fun () ->
          Engine.cancel engine timer;
          resume (Ok true)))

(* Note [machine]'s claim to hold a [role] replica of [rid] in a table of
   each region's (primary, backups). *)
let claim claims ~machine rid role =
  let p, bs = match Hashtbl.find_opt claims rid with Some v -> v | None -> (None, []) in
  match role with
  | State.Primary -> Hashtbl.replace claims rid (Some machine, bs)
  | State.Backup -> Hashtbl.replace claims rid (p, machine :: bs)

(* Rebuild the CM-only region map from probe results — needed when a backup
   CM takes over (the cause of the slower recovery in Figure 11). *)
let rebuild_owners st (cm : State.cm_state) ~probes =
  Hashtbl.reset cm.State.owners;
  let claims = Hashtbl.create 64 in
  let change_ids = Hashtbl.create 64 in
  let note_claims machine replicas =
    List.iter (fun (rid, role) -> claim claims ~machine rid role) replicas
  in
  let note_infos infos =
    List.iter
      (fun (rid, lpc, lrc) ->
        let lpc0, lrc0 =
          match Hashtbl.find_opt change_ids rid with Some v -> v | None -> (0, 0)
        in
        Hashtbl.replace change_ids rid (max lpc lpc0, max lrc lrc0))
      infos
  in
  List.iter (fun pr -> note_claims pr.pr_machine pr.pr_replicas; note_infos pr.pr_infos) probes;
  (* include the new CM's own replicas and cached infos *)
  note_claims st.State.id
    (Hashtbl.fold (fun rid (r : State.replica) acc -> (rid, r.State.role) :: acc)
       st.State.nv.replicas []);
  note_infos
    (Int_tbl.fold
       (fun rid (i : Wire.region_info) acc ->
         (rid, i.Wire.last_primary_change, i.Wire.last_replica_change) :: acc)
       st.State.region_map []);
  (* regions known only from cached mappings (every replica died) must
     still be represented so remapping can report them lost *)
  Hashtbl.iter
    (fun rid _ -> if not (Hashtbl.mem claims rid) then Hashtbl.replace claims rid (None, []))
    change_ids;
  let max_rid = ref 0 in
  Hashtbl.iter
    (fun rid (p, bs) ->
      max_rid := max !max_rid rid;
      let lpc, lrc =
        match Hashtbl.find_opt change_ids rid with Some v -> v | None -> (0, 0)
      in
      (* a dead primary is represented by the -1 sentinel: remapping sees a
         non-member primary and promotes a surviving backup, stamping the
         proper change identifiers *)
      let primary = match p with Some m -> m | None -> -1 in
      Hashtbl.replace cm.State.owners rid
        {
          Wire.rid;
          primary;
          backups = List.sort_uniq compare bs;
          last_primary_change = lpc;
          last_replica_change = lrc;
          critical = false;
        })
    claims;
  if cm.State.next_rid <= !max_rid then cm.State.next_rid <- !max_rid + 1

(* A recovery milestone, for the cluster log. *)
let milestone st kind = Farm_obs.Obs.event st.State.obs kind ~a:0 ~b:0 ~c:0

(* Reconfiguration from the probe on (§5.2), retried until a majority
   answers; must run in a process on this machine. *)
let rec attempt_reconfig st =
  Proc.check_cancelled ();
  let old = st.State.config in
  let suspects = Hashtbl.fold (fun m () acc -> m :: acc) st.State.pending_suspects [] in
  let candidates =
    List.filter (fun m -> m <> st.State.id && not (List.mem m suspects)) old.Config.members
  in
  (* 2. Probe all machines except the suspects; proceed only with responses
     from a majority (partition safety). *)
  let probes = probe st ~targets:candidates in
  milestone st Farm_obs.Obs.K_ms_probe;
  let responders =
    List.sort_uniq compare (st.State.id :: List.map (fun p -> p.pr_machine) probes)
  in
  if 2 * List.length responders <= List.length old.Config.members then begin
    Proc.sleep (Time.ms 5);
    attempt_reconfig st
  end
  else begin
    (* 3. Atomically advance the configuration in the coordination
       service; only one machine can win configuration c+1. *)
    match Farm_coord.Zk.read st.State.zk with
    | None ->
        Proc.sleep (Time.ms 2);
        attempt_reconfig st
    | Some (seq, cur) ->
        if cur.Config.id > old.Config.id then
          (* someone else already moved the system on; adopt via NEW-CONFIG *)
          st.State.reconfig_active <- false
        else begin
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
              let fresh, lost = remap st cm ~members:responders ~new_id in
              List.iter
                (fun rid ->
                  Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_ms_region_lost ~a:rid ~b:0
                    ~c:0)
                lost;
              cm.State.pending_data_recovery <-
                cm.State.pending_data_recovery + List.length fresh;
              cm.State.regions_active_from <- [];
              cm.State.all_active_sent <- false;
              Hashtbl.reset st.State.pending_suspects;
              (* reset the lease table for the new configuration *)
              Hashtbl.reset cm.State.cm_leases;
              List.iter
                (fun m -> Hashtbl.replace cm.State.cm_leases m (State.now st))
                responders;
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
                List.iter
                  (fun m -> if m <> st.State.id then Hashtbl.replace st.State.pending_suspects m ())
                  !remaining;
                attempt_reconfig st
              end
              else begin
                List.iter
                  (fun m -> Comms.send st ~dst:m (Wire.New_config_commit { cfg = new_id }))
                  responders;
                milestone st Farm_obs.Obs.K_ms_config_commit;
                st.State.reconfig_active <- false
              end
        end
  end

(* Entry point for suspicions (lease expiry, failed probes, explicit
   SUSPECT messages). Runs the backup-CM election dance of §5.2 step 1 when
   the CM itself is suspected. *)
let handle_suspicion st suspects =
  if st.State.rejoining then ()
  else begin
  let fresh = List.filter (fun m -> not (Hashtbl.mem st.State.pending_suspects m)) suspects in
  List.iter (fun m -> Hashtbl.replace st.State.pending_suspects m ()) suspects;
  if fresh <> [] then begin
    List.iter
      (fun m -> Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_suspect ~a:m ~b:0 ~c:0)
      fresh;
    milestone st Farm_obs.Obs.K_ms_suspect
  end;
  let old_id = st.State.config.Config.id in
  let cm_suspected = List.mem st.State.config.Config.cm suspects in
  let start () =
    if not st.State.reconfig_active then begin
      st.State.reconfig_active <- true;
      Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () -> attempt_reconfig st)
    end
  in
  if State.is_cm st then start ()
  else if cm_suspected then begin
    let bcms = Config.backup_cms st.State.config ~k:Params.backup_cms in
    let rec position i = function
      | [] -> None
      | x :: rest -> if x = st.State.id then Some i else position (i + 1) rest
    in
    match position 0 bcms with
    | Some i ->
        (* backup CMs stagger their attempts to avoid a stampede *)
        Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
            Proc.sleep (Time.mul_int (Time.ms 2) i);
            if st.State.config.Config.id = old_id then start ())
    | None ->
        Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
            (match bcms with
            | b :: _ ->
                Comms.send st ~dst:b
                  (Wire.Suspect_req { cfg = old_id; suspect = st.State.config.Config.cm })
            | [] -> ());
            Proc.sleep Params.backup_cm_timeout;
            if st.State.config.Config.id = old_id then start ())
  end
  else
    (* a non-CM grantor (a group leader in the two-level lease hierarchy)
       detected a member expiry: report it to the CM *)
    Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
        List.iter
          (fun suspect ->
            Comms.send st ~dst:st.State.config.Config.cm
              (Wire.Suspect_req { cfg = old_id; suspect }))
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
