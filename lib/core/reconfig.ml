open Farm_sim

(* The rules of membership as pure functions (§5.1, §5.2); each is
   documented in the interface. *)

let rec index_of m i = function
  | [] -> None
  | x :: rest -> if x = m then Some i else index_of m (i + 1) rest

type lease_group = { grantor : int; leads : bool; watches : int list }

let lease_group ~group_size (c : Config.t) self =
  let cm = c.Config.cm and flat = group_size <= 0 in
  if flat && self <> cm then { grantor = cm; leads = false; watches = [] }
  else begin
    let others = List.filter (fun m -> m <> cm) c.Config.members in
    let group i = i / group_size in
    if self = cm then
      {
        grantor = cm;
        leads = false;
        watches = (if flat then others else List.filteri (fun i _ -> i mod group_size = 0) others);
      }
    else
      match index_of self 0 others with
      | None -> { grantor = cm; leads = false; watches = [] }
      | Some i when i mod group_size = 0 ->
          {
            grantor = cm;
            leads = true;
            watches = List.filteri (fun j _ -> j <> i && group j = group i) others;
          }
      | Some i -> { grantor = List.nth others (group i * group_size); leads = false; watches = [] }
  end

type view = { self : int; config : Config.t; suspects : int list; retry : bool }

type response =
  | Start
  | Start_after of Time.t
  | Escalate of { backup : int option; wait : Time.t }
  | Report

(* Step 1. Backup CMs stagger their starts so they do not stampede. *)
let on_suspicion ~self (c : Config.t) ~suspects =
  if self = c.Config.cm then Start
  else if List.mem c.Config.cm suspects then begin
    let backups = Config.backup_cms c ~k:Params.backup_cms in
    match index_of self 0 backups with
    | Some rank -> Start_after (Time.mul_int (Time.ms 2) rank)
    | None -> Escalate { backup = List.nth_opt backups 0; wait = Params.backup_cm_timeout }
  end
  else Report

(* Step 2; after a round without a majority, the suspects too (DESIGN.md deviation 12). *)
let probe_targets v =
  List.filter
    (fun m -> m <> v.self && (v.retry || not (List.mem m v.suspects)))
    v.config.Config.members

type round = Retry of { cleared : int list } | Propose of int list

(* Step 2: a majority of the old configuration, for partition safety. *)
let after_probe v ~answered =
  let responders = List.sort_uniq Int.compare (v.self :: answered) in
  if 2 * List.length responders <= Config.size v.config then
    Retry { cleared = List.filter (fun m -> List.mem m v.suspects) answered }
  else Propose responders

(* Step 3. *)
let moved_on v ~zk_id = zk_id > v.config.Config.id

(* Step 7. *)
let unacked_suspects ~self unacked = List.filter (fun m -> m <> self) unacked

type remapped = {
  infos : (int * Wire.region_info) list;
  fresh : (int * int) list;
  lost : int list;
}

(* Step 4: promote a surviving backup when the primary failed (fast
   recovery), and re-replicate to restore f+1 subject to failure-domain
   and capacity constraints. *)
let remap (cons : Placement.constraints) owners ~new_id =
  let alive m = List.mem m cons.Placement.members in
  Hashtbl.fold
    (fun rid (info : Wire.region_info) r ->
      match List.filter alive (info.Wire.primary :: info.Wire.backups) with
      | [] -> { r with lost = rid :: r.lost }
      | primary :: rest as survivors ->
          let needed = cons.Placement.replication - List.length survivors in
          let replacements =
            if needed <= 0 then []
            else Option.value ~default:[] (Placement.choose_replacements cons ~survivors ~needed)
          in
          let info' =
            {
              info with
              Wire.primary;
              backups = rest @ replacements;
              last_primary_change =
                (if primary <> info.Wire.primary then new_id else info.Wire.last_primary_change);
              last_replica_change =
                (if List.length survivors <> 1 + List.length info.Wire.backups || replacements <> []
                 then new_id
                 else info.Wire.last_replica_change);
              (* down to one survivor: re-replicate aggressively (§6.4) *)
              critical = List.length survivors = 1;
            }
          in
          {
            r with
            infos = (rid, info') :: r.infos;
            fresh = List.fold_left (fun acc m -> (m, rid) :: acc) r.fresh replacements;
          })
    owners
    { infos = []; fresh = []; lost = [] }
