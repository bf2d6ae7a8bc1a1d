open Farm_core

(* §5.2's membership rules ([Reconfig]), run in rounds over every small
   membership state. A state is a cluster of n machines with machine 0 as
   CM: who is crashed, which directed links are up, and who suspects whom.
   [Reconfig.on_suspicion] says who starts a reconfiguration (following
   SUSPECT reports to the first backup CM or to the CM over live links);
   each starter then runs probe rounds — [probe_targets], one-sided reads
   that need the link both ways, [after_probe] — until it proposes or its
   view repeats.

   Safety: every proposal holds a majority of the old configuration and
   only machines that answered (and the proposer). Liveness: when a
   starter is connected both ways to a live majority, some starter
   proposes within [max_rounds] rounds; a view that repeats forever
   without a proposal fails. *)

let max_rounds = 4

type state = {
  n : int;
  crashed : int list;
  down : (int * int) list;  (* directed links that are down *)
  suspicions : (int * int list) list;  (* machine, its suspects *)
}

let ints = Fmt.(brackets (list ~sep:semi int))

let pp_state ppf s =
  Fmt.pf ppf "n=%d cm=0 crashed=%a down=%a suspicions=%a" s.n ints s.crashed
    Fmt.(brackets (list ~sep:semi (pair ~sep:(any "->") int int)))
    s.down
    Fmt.(brackets (list ~sep:semi (pair ~sep:(any " suspects ") int ints)))
    s.suspicions

let alive s m = not (List.mem m s.crashed)
let link s a b = a = b || not (List.mem (a, b) s.down)
let reaches s a b = alive s b && link s a b && link s b a

(* Subsets of a list, as lists in the list's order. *)
let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
      let r = subsets rest in
      List.map (fun l -> x :: l) r @ r

(* The live machines that start a reconfiguration, each with its
   suspects, after the initial suspicions and the SUSPECT reports they
   send over links that are up. *)
let starters s config =
  let acc = ref [] in
  let add m suspects =
    let prev = Option.value ~default:[] (List.assoc_opt m !acc) in
    acc := (m, List.sort_uniq compare (suspects @ prev)) :: List.remove_assoc m !acc
  in
  let rec suspect m suspects =
    if alive s m then
      match Reconfig.on_suspicion ~self:m config ~suspects with
      | Reconfig.Start | Reconfig.Start_after _ -> add m suspects
      | Reconfig.Escalate { backup; wait = _ } ->
          (match backup with
          | Some b when link s m b -> suspect b [ config.Config.cm ]
          | Some _ | None -> ());
          add m suspects
      | Reconfig.Report ->
          let cm = config.Config.cm in
          if link s m cm then suspect cm suspects
  in
  List.iter (fun (m, suspects) -> suspect m suspects) s.suspicions;
  !acc

exception Unsafe of string

(* Run one starter's probe rounds: [Ok members] if it proposes within
   [max_rounds], [Error heard] if its view repeats (or [max_rounds] pass) first, with the
   machines it heard in its last round. *)
let attempt s config (self, suspects) =
  let rec go round (v : Reconfig.view) =
    let answered = List.filter (reaches s self) (Reconfig.probe_targets v) in
    match Reconfig.after_probe v ~answered with
    | Reconfig.Propose members ->
        if 2 * List.length members <= s.n then
          raise (Unsafe (Fmt.str "m%d proposed %d of %d" self (List.length members) s.n));
        List.iter
          (fun m ->
            if m <> self && not (List.mem m answered) then
              raise (Unsafe (Fmt.str "m%d proposed m%d, which did not answer" self m)))
          members;
        Ok members
    | Reconfig.Retry { cleared } ->
        let v' =
          {
            v with
            Reconfig.suspects =
              List.filter (fun m -> not (List.mem m cleared)) v.Reconfig.suspects;
            retry = true;
          }
        in
        if v' = v || round >= max_rounds then Error (self :: answered) else go (round + 1) v'
  in
  go 1 { Reconfig.self; config; suspects; retry = false }

let live_majority s m =
  alive s m && 2 * List.length (List.filter (reaches s m) (List.init s.n Fun.id)) > s.n

(* [Ok proposals], the distinct proposals (none only if no starter reaches
   a live majority), or [Error why] on a safety or liveness failure. *)
let check s =
  let config = Config.make ~id:1 ~members:(List.init s.n Fun.id) ~domains:[] ~cm:0 in
  match List.map (fun st -> (st, attempt s config st)) (starters s config) with
  | exception Unsafe why -> Error why
  | runs ->
      let proposals =
        List.sort_uniq compare (List.filter_map (fun (_, r) -> Result.to_option r) runs)
      in
      if proposals <> [] || not (List.exists (fun ((m, _), _) -> live_majority s m) runs) then
        Ok proposals
      else
        Error
          (String.concat "; "
             (List.map
                (fun ((m, suspects), r) ->
                  let heard = match r with Error heard -> heard | Ok _ -> [] in
                  Fmt.str "m%d suspects %a, hears only %a, and retries forever" m ints suspects
                    ints heard)
                runs))

(* Every CM suspect set, and every member suspecting the CM. *)
let suspicion_sets n =
  let others = List.init (n - 1) (fun i -> i + 1) in
  List.filter_map
    (fun set -> if set = [] then None else Some [ (0, set) ])
    (subsets others)
  @ List.map (fun m -> [ (m, [ 0 ]) ]) others

(* Lease-derived suspicions: the CM suspects a member whose renewals stop
   arriving (dead, or its link to the CM down); a member suspects the CM
   when it gets no grants (the CM dead, or either link down). *)
let lease_suspicions s =
  let others = List.init (s.n - 1) (fun i -> i + 1) in
  let cm_suspects = List.filter (fun m -> not (alive s m && link s m 0)) others in
  (if cm_suspects = [] then [] else [ (0, cm_suspects) ])
  @ List.filter_map
      (fun m -> if alive s 0 && link s 0 m && link s m 0 then None else Some (m, [ 0 ]))
      others

let states () =
  let all n = List.init n Fun.id in
  (* n = 3: every directed link up or down, every crash set *)
  let pairs =
    List.concat_map (fun a -> List.filter_map (fun b -> if a <> b then Some (a, b) else None) (all 3)) (all 3)
  in
  let n3 =
    List.concat_map
      (fun down ->
        List.concat_map
          (fun crashed ->
            let s = { n = 3; crashed; down; suspicions = [] } in
            List.map
              (fun suspicions -> { s with suspicions })
              (lease_suspicions s :: suspicion_sets 3))
          (subsets (all 3)))
      (subsets pairs)
  in
  (* n = 4, 5: every crash set, every CM suspect set, every member
     suspecting the CM, all links up *)
  let small n =
    List.concat_map
      (fun crashed ->
        List.map (fun suspicions -> { n; crashed; down = []; suspicions }) (suspicion_sets n))
      (subsets (all n))
  in
  n3 @ small 4 @ small 5

let enumerate () =
  let states = states () in
  let proposed = ref 0 and competing = ref 0 and failures = ref [] in
  List.iter
    (fun s ->
      match check s with
      | Ok proposals ->
          if proposals <> [] then incr proposed;
          if List.length proposals > 1 then incr competing
      | Error why ->
          let failure = Fmt.str "%a: %s" pp_state s why in
          print_endline failure;
          failures := failure :: !failures)
    states;
  (* competing proposals for one configuration id are settled by
     ZooKeeper's compare-and-swap (step 3), which the rules do not model *)
  Printf.printf
    "reconfig enumerator: %d states, %d with a proposal (%d with competing proposals), %d failing\n"
    (List.length states) !proposed !competing (List.length !failures);
  match List.rev !failures with
  | [] -> ()
  | first :: _ as all ->
      Alcotest.failf "%d of %d states fail; first: %s" (List.length all) (List.length states) first

let suites = [ ("reconfig", [ Alcotest.test_case "small-scope enumerator" `Quick enumerate ]) ]
