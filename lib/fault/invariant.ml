open Farm_core

(* Invariant probes over a healed, quiesced cluster.

   Probes inspect only machines that are members of the newest committed
   configuration: alive non-members are evicted zombies whose stale state
   is deliberately out of date (their non-interference is checked by the
   history, not by state probes). All probe output is a pure function of
   machine state, so a replayed seed reports identical violations. *)

type violation = { name : string; detail : string }

let pp ppf v = Fmt.pf ppf "[%s] %s" v.name v.detail

(* Iterate the allocated object slots of a replica. *)
let iter_slots (rep : State.replica) f =
  let blocks =
    List.sort compare
      (Hashtbl.fold (fun block slot acc -> (block, slot) :: acc) rep.State.block_headers [])
  in
  List.iter
    (fun (block, slot) ->
      let base = block * Params.block_size in
      for i = 0 to (Params.block_size / slot) - 1 do
        f ~block ~slot ~off:(base + (i * slot))
      done)
    blocks

let check (c : Cluster.t) : violation list =
  let out = ref [] in
  let add name fmt = Fmt.kstr (fun detail -> out := { name; detail } :: !out) fmt in
  (match Cluster.current_config c with
  | None -> add "liveness" "no alive machine holds a configuration"
  | Some cfg ->
      let members =
        List.filter (fun m -> (Cluster.machine c m).State.alive) cfg.Config.members
      in
      (* 1. no leaked locks: a quiesced primary has every lock bit clear *)
      List.iter
        (fun m ->
          let st = Cluster.machine c m in
          Hashtbl.iter
            (fun rid (rep : State.replica) ->
              if rep.State.role = State.Primary then
                iter_slots rep (fun ~block:_ ~slot:_ ~off ->
                    if Obj_layout.is_locked (Obj_layout.get rep.State.mem ~off) then begin
                      (* name the holder if the lock table still knows it *)
                      let holder =
                        Txid.Tbl.fold
                          (fun txid writes acc ->
                            if
                              List.exists
                                (fun (w : Wire.write_item) ->
                                  w.Wire.addr.Addr.region = rid
                                  && w.Wire.addr.Addr.offset = off)
                                writes
                            then Some txid
                            else acc)
                          st.State.locks_held None
                      in
                      match holder with
                      | Some txid ->
                          add "leaked-lock"
                            "m%d region %d offset %d still locked by %a (coord m%d, outcome %s)"
                            m rid off Txid.pp txid txid.Txid.machine
                            (match Txid.Tbl.find_opt st.State.recovered_outcomes txid with
                            | Some State.Committed -> "committed"
                            | Some State.Aborted -> "aborted"
                            | None -> "undecided")
                      | None ->
                          add "leaked-lock" "m%d region %d offset %d still locked (no holder)"
                            m rid off
                    end))
            st.State.nv.replicas)
        members;
      (* 2. allocator metadata: free lists and their membership mirror agree *)
      List.iter
        (fun m ->
          let st = Cluster.machine c m in
          Hashtbl.iter
            (fun rid (rep : State.replica) ->
              if rep.State.role = State.Primary && rep.State.free_lists_valid then begin
                let listed = Hashtbl.create 64 in
                Hashtbl.iter
                  (fun size offs ->
                    List.iter
                      (fun off ->
                        if Hashtbl.mem listed off then
                          add "allocator" "m%d region %d offset %d on two free lists" m rid off;
                        Hashtbl.replace listed off ();
                        if not (Hashtbl.mem rep.State.free_set off) then
                          add "allocator"
                            "m%d region %d offset %d (size %d) free-listed but not in free set"
                            m rid off size)
                      !offs)
                  rep.State.free_lists;
                if Hashtbl.length listed <> Hashtbl.length rep.State.free_set then
                  add "allocator" "m%d region %d free set has %d entries, free lists %d" m rid
                    (Hashtbl.length rep.State.free_set)
                    (Hashtbl.length listed)
              end)
            st.State.nv.replicas)
        members;
      (* 3. primary/backup byte equality: every replicated object carries the
         same version and data everywhere (lock bits are primary-only and
         masked; fresh backups still being bulk-loaded are skipped) *)
      let region_infos =
        List.concat_map
          (fun m ->
            let st = Cluster.machine c m in
            match st.State.cm with
            | Some cm when st.State.config.Config.id = cfg.Config.id ->
                Hashtbl.fold (fun _ info acc -> info :: acc) cm.State.owners []
            | _ -> [])
          members
        |> List.sort (fun (a : Wire.region_info) b -> compare a.Wire.rid b.Wire.rid)
      in
      List.iter
        (fun (info : Wire.region_info) ->
          let rid = info.Wire.rid in
          if List.mem info.Wire.primary members then
            match State.replica (Cluster.machine c info.Wire.primary) rid with
            | None -> add "replication" "primary m%d has no replica of region %d" info.Wire.primary rid
            | Some prim when prim.State.fresh_backup -> ()
            | Some prim ->
                List.iter
                  (fun b ->
                    if List.mem b members then
                      match State.replica (Cluster.machine c b) rid with
                      | None -> add "replication" "backup m%d has no replica of region %d" b rid
                      | Some rep when rep.State.fresh_backup -> ()
                      | Some rep ->
                          iter_slots prim (fun ~block:_ ~slot ~off ->
                              let hp = Obj_layout.get prim.State.mem ~off in
                              let hb = Obj_layout.get rep.State.mem ~off in
                              if
                                Obj_layout.with_locked hp false
                                <> Obj_layout.with_locked hb false
                              then
                                add "divergence"
                                  "region %d offset %d: header %Ld on primary m%d, %Ld on backup m%d"
                                  rid off hp info.Wire.primary hb b
                              else
                                let len = slot - Obj_layout.header_size in
                                let dp = Obj_layout.read_data prim.State.mem ~off ~len in
                                let db = Obj_layout.read_data rep.State.mem ~off ~len in
                                if not (Bytes.equal dp db) then
                                  add "divergence"
                                    "region %d offset %d: data differs between primary m%d and backup m%d"
                                    rid off info.Wire.primary b))
                  info.Wire.backups)
        region_infos;
      (* 4. every recovery coordination reached a decision *)
      List.iter
        (fun m ->
          let st = Cluster.machine c m in
          Txid.Tbl.iter
            (fun txid rc ->
              if not rc.State.rc_decided then
                add "recovery" "m%d never decided recovering transaction %a" m Txid.pp txid)
            st.State.rec_coords)
        members);
  List.rev !out
