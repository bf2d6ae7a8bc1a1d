open Farm_core

(* A strict-serializability checker for recorded transaction histories.

   FaRM's object versions give an exact serialization witness: a committed
   write of object [o] that observed version [v] installs [v+1], so per
   object the writers are totally ordered by version, a read of [o] at
   version [v] must come after the writer that installed [v] and before the
   writer that installs [v+1], and no two committed transactions may
   install the same version of the same object.

   The checker builds that precedence graph over committed transactions and
   verifies (a) unique writers per (object, version) and (b) acyclicity —
   together equivalent to the history having a serial order consistent
   with what every transaction observed. Aborted transactions must leave no
   trace, which the version-uniqueness check also enforces (a "committed"
   version written by an aborted transaction would collide with the next
   writer's). *)

type event = {
  tx : int;  (* dense id assigned by the recorder *)
  reads : (Addr.t * int) list;  (* object, version observed *)
  writes : (Addr.t * int) list;  (* object, version observed (installs +1) *)
}

type t = { mutable events : event list; mutable next : int }

let create () = { events = []; next = 0 }

(* Record a transaction directly from its footprint: used by tests to build
   known-bad histories without driving real transactions. *)
let add t ~reads ~writes =
  let id = t.next in
  t.next <- id + 1;
  t.events <- { tx = id; reads; writes } :: t.events;
  id

(* Record one committed transaction from its execution footprint. *)
let record t (tx : Txn.t) =
  (* descending, as a fold over the ascending sets conses them *)
  let footprint n keys vers =
    List.init n (fun i -> (Addr.unpack keys.(n - 1 - i), vers.(n - 1 - i)))
  in
  let reads = footprint tx.Txn.nreads tx.Txn.rkeys tx.Txn.rvers in
  let writes = footprint tx.Txn.nwrites tx.Txn.wkeys tx.Txn.wvers in
  let id = t.next in
  t.next <- id + 1;
  t.events <- { tx = id; reads; writes } :: t.events;
  id

type verdict = Serializable | Duplicate_write of Addr.t * int | Cycle of int list

(* Edges: for each object o,
     writer(o, v) -> writer(o, v+1)          (version order)
     writer(o, v) -> reader(o, v)            (read sees the install)
     reader(o, v) -> writer(o, v+1)          (read precedes overwrite)
   A write that observed v is both reader-of-v and writer-of-v+1. *)
let check t : verdict =
  let events = Array.of_list (List.rev t.events) in
  let n = Array.length events in
  let writer : (Addr.t * int, int) Hashtbl.t = Hashtbl.create 1024 in
  let dup = ref None in
  Array.iter
    (fun e ->
      List.iter
        (fun (a, v) ->
          let key = (a, v + 1) in
          if Hashtbl.mem writer key then dup := Some (a, v + 1)
          else Hashtbl.replace writer key e.tx)
        e.writes)
    events;
  match !dup with
  | Some (a, v) -> Duplicate_write (a, v)
  | None ->
      let succs = Array.make n [] in
      let add_edge a b = if a <> b then succs.(a) <- b :: succs.(a) in
      Array.iter
        (fun e ->
          let observe (a, v) =
            (* after the writer that installed v (if recorded) *)
            (match Hashtbl.find_opt writer (a, v) with
            | Some w -> add_edge w e.tx
            | None -> () (* initial state *));
            (* before the writer that installs v+1 *)
            match Hashtbl.find_opt writer (a, v + 1) with
            | Some w -> add_edge e.tx w
            | None -> ()
          in
          List.iter observe e.reads;
          List.iter observe e.writes)
        events;
      (* cycle detection via iterative DFS *)
      let color = Array.make n 0 in
      let parent = Array.make n (-1) in
      let cycle = ref None in
      let rec dfs u =
        color.(u) <- 1;
        List.iter
          (fun v ->
            if !cycle = None then
              if color.(v) = 0 then begin
                parent.(v) <- u;
                dfs v
              end
              else if color.(v) = 1 then begin
                (* reconstruct u -> ... -> v *)
                let rec back acc x = if x = v || x = -1 then v :: acc else back (x :: acc) parent.(x) in
                cycle := Some (back [] u)
              end)
          succs.(u);
        color.(u) <- 2
      in
      let i = ref 0 in
      while !cycle = None && !i < n do
        if color.(!i) = 0 then dfs !i;
        incr i
      done;
      (match !cycle with Some c -> Cycle c | None -> Serializable)

let pp_verdict ppf = function
  | Serializable -> Fmt.string ppf "serializable"
  | Duplicate_write (a, v) -> Fmt.pf ppf "duplicate write of %a version %d" Addr.pp a v
  | Cycle txs -> Fmt.pf ppf "precedence cycle through transactions %a" Fmt.(list ~sep:(any "->") int) txs

let size t = t.next
