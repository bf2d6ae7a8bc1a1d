(* A configuration <i, S, F, CM> (§3): unique monotonically increasing
   identifier, member set, failure-domain mapping, and configuration
   manager. *)

type t = {
  id : int;
  members : int list;  (* sorted, no duplicates *)
  domains : (int * int) list;  (* machine -> failure domain *)
  cm : int;
}

let make ~id ~members ~domains ~cm =
  let members = List.sort_uniq Int.compare members in
  if not (List.mem cm members) then invalid_arg "Config.make: CM must be a member";
  { id; members; domains; cm }

let rec mem (m : int) = function [] -> false | x :: rest -> x = m || mem m rest

let is_member t m = mem m t.members

let domain_of t m = match List.assoc_opt m t.domains with Some d -> d | None -> m

let size t = List.length t.members

(* The k machines that act as backup CMs: the successors of the CM on the
   identifier ring (consistent hashing, §5.2 step 1). *)
let backup_cms t ~k =
  let sorted = t.members in
  let after = List.filter (fun m -> m > t.cm) sorted in
  List.filteri (fun i _ -> i < k) (after @ List.filter (fun m -> m < t.cm) sorted)

(* Deterministic coordinator assignment for recovering transactions whose
   original coordinator left the configuration (§5.3 step 6). *)
let recovery_coordinator t txid =
  let members = Array.of_list t.members in
  members.(Txid.hash txid mod Array.length members)
