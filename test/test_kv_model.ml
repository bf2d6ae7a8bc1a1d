open Farm_core
open Farm_kv
open Test_util

(* QCheck model-based testing of the kv structures: a generated operation
   sequence is applied both to the real structure (inside FaRM transactions
   on a small cluster) and to a [Map] reference; every operation's result
   must agree, and a full sweep at the end compares the final contents.
   Complements the fixed-seed random loops in [Test_kv] with shrinking:
   a failure reduces to a minimal operation sequence. *)

let qtest = QCheck_alcotest.to_alcotest

(* Small key space so sequences collide, split nodes, and chain buckets. *)
let key_gen = QCheck.Gen.int_range 0 40

type op = Ins of int * int | Del of int | Find of int | Range of int * int

let pp_op ppf = function
  | Ins (k, v) -> Fmt.pf ppf "Ins(%d,%d)" k v
  | Del k -> Fmt.pf ppf "Del %d" k
  | Find k -> Fmt.pf ppf "Find %d" k
  | Range (lo, hi) -> Fmt.pf ppf "Range(%d,%d)" lo hi

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Ins (k, v)) key_gen (int_range 1 1_000_000));
        (2, map (fun k -> Del k) key_gen);
        (2, map (fun k -> Find k) key_gen);
        (1, map2 (fun a b -> Range (min a b, max a b)) key_gen key_gen);
      ])

let ops_arbitrary =
  QCheck.make
    ~print:(Fmt.str "%a" (Fmt.Dump.list pp_op))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 60) op_gen)

module M = Map.Make (Int)

let btree_matches_map =
  QCheck.Test.make ~name:"btree agrees with Map reference" ~count:10 ops_arbitrary
    (fun ops ->
      let c = mk_cluster ~machines:3 () in
      let r1 = Cluster.alloc_region_exn c in
      let r2 = Cluster.alloc_region_exn c in
      let t =
        Cluster.run_on c ~machine:0 (fun st ->
            Btree.create st ~thread:0 ~regions:[| r1.Wire.rid; r2.Wire.rid |] ~fanout:5 ())
      in
      let model = ref M.empty in
      List.iteri
        (fun i op ->
          Cluster.run_on c ~machine:(i mod Cluster.n_machines c) (fun st ->
              Api.run_retry st ~thread:0 (fun tx ->
                  match op with
                  | Ins (k, v) ->
                      Btree.insert tx t k v;
                      model := M.add k v !model
                  | Del k ->
                      let deleted = Btree.delete tx t k in
                      if deleted <> M.mem k !model then
                        QCheck.Test.fail_reportf "op %d: delete %d returned %b" i k deleted;
                      model := M.remove k !model
                  | Find k ->
                      if Btree.find tx t k <> M.find_opt k !model then
                        QCheck.Test.fail_reportf "op %d: find %d mismatch" i k
                  | Range (lo, hi) ->
                      let got = Btree.range tx t ~lo ~hi in
                      let want =
                        M.bindings (M.filter (fun k _ -> lo <= k && k <= hi) !model)
                      in
                      if got <> want then
                        QCheck.Test.fail_reportf "op %d: range (%d,%d) mismatch" i lo hi)
              |> function
              | Ok () -> ()
              | Error r -> QCheck.Test.fail_reportf "op %d aborted: %a" i Txn.pp_abort r))
        ops;
      (* final sweep: structural invariants and exact contents *)
      Cluster.run_on c ~machine:0 (fun st ->
          match
            Api.run_retry st ~thread:0 (fun tx ->
                let violations, keys = Btree.check_invariants tx t in
                (violations, keys, Btree.range tx t ~lo:min_int ~hi:max_int))
          with
          | Ok (violations, keys, all) ->
              if violations <> [] then
                QCheck.Test.fail_reportf "invariants: %a" Fmt.(Dump.list string) violations;
              keys = M.cardinal !model && all = M.bindings !model
          | Error r -> QCheck.Test.fail_reportf "final sweep aborted: %a" Txn.pp_abort r))

(* {1 Hash table} *)

type hop = HIns of int * int | HDel of int | HFind of int

let pp_hop ppf = function
  | HIns (k, v) -> Fmt.pf ppf "Ins(%d,%d)" k v
  | HDel k -> Fmt.pf ppf "Del %d" k
  | HFind k -> Fmt.pf ppf "Find %d" k

let hop_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> HIns (k, v)) key_gen (int_range 1 1_000_000));
        (2, map (fun k -> HDel k) key_gen);
        (2, map (fun k -> HFind k) key_gen);
      ])

let hops_arbitrary =
  QCheck.make
    ~print:(Fmt.str "%a" (Fmt.Dump.list pp_hop))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 60) hop_gen)

let key8 v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  b

let value16 v =
  let b = Bytes.make 16 '\000' in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  b

let hashtable_matches_map =
  (* few buckets and slots so chains overflow *)
  QCheck.Test.make ~name:"hashtable agrees with Map reference" ~count:15 hops_arbitrary
    (fun ops ->
      let c = mk_cluster ~machines:3 () in
      let r1 = Cluster.alloc_region_exn c in
      let t =
        Hashtable.create c ~regions:[| r1.Wire.rid |] ~buckets:8 ~ksize:8 ~vsize:16 ~slots:2 ()
      in
      let model = ref M.empty in
      List.iteri
        (fun i op ->
          Cluster.run_on c ~machine:(i mod Cluster.n_machines c) (fun st ->
              Api.run_retry st ~thread:0 (fun tx ->
                  match op with
                  | HIns (k, v) ->
                      Hashtable.insert tx t (key8 k) (value16 v);
                      model := M.add k v !model
                  | HDel k ->
                      let deleted = Hashtable.delete tx t (key8 k) in
                      if deleted <> M.mem k !model then
                        QCheck.Test.fail_reportf "op %d: delete %d returned %b" i k deleted;
                      model := M.remove k !model
                  | HFind k -> (
                      match (Hashtable.lookup tx t (key8 k), M.find_opt k !model) with
                      | None, None -> ()
                      | Some got, Some v when Bytes.equal got (value16 v) -> ()
                      | _ -> QCheck.Test.fail_reportf "op %d: lookup %d mismatch" i k))
              |> function
              | Ok () -> ()
              | Error r -> QCheck.Test.fail_reportf "op %d aborted: %a" i Txn.pp_abort r))
        ops;
      (* final sweep over the whole key space, on both transactional and
         lock-free read paths *)
      Cluster.run_on c ~machine:1 (fun st ->
          List.for_all
            (fun k ->
              let want = Option.map value16 (M.find_opt k !model) in
              let tx_got =
                match Api.run_retry st ~thread:0 (fun tx -> Hashtable.lookup tx t (key8 k)) with
                | Ok r -> r
                | Error r -> QCheck.Test.fail_reportf "sweep aborted: %a" Txn.pp_abort r
              in
              let lf_got = Hashtable.lookup_lockfree st t (key8 k) in
              tx_got = want && lf_got = want)
            (List.init 41 Fun.id)))

(* Regression: re-inserting a key that overflowed into a chained bucket must
   update the chained entry, not grab a slot freed by a delete in an earlier
   bucket — the duplicate would survive a later delete and resurrect the old
   value. Shrunk from a [hashtable_matches_map] counterexample. *)
let hashtable_no_stale_duplicate () =
  let c = mk_cluster ~machines:3 () in
  let r1 = Cluster.alloc_region_exn c in
  let t =
    Hashtable.create c ~regions:[| r1.Wire.rid |] ~buckets:8 ~ksize:8 ~vsize:16 ~slots:2 ()
  in
  let ops =
    [ HIns (19, 79591); HIns (35, 154822); HIns (3, 83017); HIns (25, 893031); HDel 28;
      HFind 17; HDel 35; HIns (34, 347583); HFind 27; HIns (4, 21561); HDel 16; HDel 39;
      HIns (7, 956613); HIns (3, 956010); HFind 26; HIns (17, 475804); HIns (32, 610046);
      HDel 7; HIns (13, 532858); HIns (1, 907440); HDel 14; HFind 39; HIns (25, 104613);
      HDel 3; HDel 29; HDel 26; HDel 39; HFind 26; HIns (37, 855915); HDel 1; HDel 14 ]
  in
  let model = ref M.empty in
  List.iteri
    (fun i op ->
      Cluster.run_on c ~machine:(i mod Cluster.n_machines c) (fun st ->
          Api.run_retry st ~thread:0 (fun tx ->
              match op with
              | HIns (k, v) ->
                  Hashtable.insert tx t (key8 k) (value16 v);
                  model := M.add k v !model
              | HDel k ->
                  Alcotest.(check bool)
                    (Fmt.str "op %d: delete %d" i k)
                    (M.mem k !model)
                    (Hashtable.delete tx t (key8 k));
                  model := M.remove k !model
              | HFind k ->
                  Alcotest.(check (option bytes))
                    (Fmt.str "op %d: lookup %d" i k)
                    (Option.map value16 (M.find_opt k !model))
                    (Hashtable.lookup tx t (key8 k)))
          |> function
          | Ok () -> ()
          | Error r -> Alcotest.failf "op %d aborted: %a" i Txn.pp_abort r))
    ops;
  Cluster.run_on c ~machine:1 (fun st ->
      List.iter
        (fun k ->
          let want = Option.map value16 (M.find_opt k !model) in
          (match Api.run_retry st ~thread:0 (fun tx -> Hashtable.lookup tx t (key8 k)) with
          | Ok got -> Alcotest.(check (option bytes)) (Fmt.str "sweep tx %d" k) want got
          | Error r -> Alcotest.failf "sweep aborted: %a" Txn.pp_abort r);
          Alcotest.(check (option bytes))
            (Fmt.str "sweep lockfree %d" k)
            want
            (Hashtable.lookup_lockfree st t (key8 k)))
        (List.init 41 Fun.id))

(* {2 Created populated = created empty, then inserted}

   [Hashtable.create ~rows] must leave exactly the layout that an empty
   [create] followed by one [insert] per row, in order, leaves: per chain
   position the same slot contents and the same chain length. Only the
   bucket addresses may differ. *)

type shape = { nbuckets : int; slots : int; partitioned : bool; rows : (int * int) list }

let pp_shape ppf s =
  Fmt.pf ppf "buckets=%d slots=%d partitioned=%b rows=%a" s.nbuckets s.slots s.partitioned
    Fmt.(Dump.list (Dump.pair int int))
    s.rows

let shape_gen =
  QCheck.Gen.(
    map
      (fun (nbuckets, slots, partitioned, rows) -> { nbuckets; slots; partitioned; rows })
      (quad (int_range 1 8) (int_range 1 3) bool
         (list_size (int_range 0 60) (pair key_gen (int_range 1 1_000_000)))))

let shape_arbitrary =
  QCheck.make ~print:(Fmt.str "%a" pp_shape)
    ~shrink:(fun s yield -> QCheck.Shrink.list s.rows (fun rows -> yield { s with rows }))
    shape_gen

(* Build both tables for [s] and compare them; returns the deepest chain. *)
let populated_equals_inserted s =
  let c = mk_cluster ~machines:3 () in
  let r1 = Cluster.alloc_region_exn c in
  let r2 = Cluster.alloc_region_exn c in
  let rows = List.map (fun (k, v) -> (key8 k, value16 v)) s.rows in
  let partitions = if s.partitioned then 2 else 1 in
  let mk ?rows () =
    Hashtable.create c ~regions:[| r1.Wire.rid; r2.Wire.rid |] ~buckets:s.nbuckets ~ksize:8
      ~vsize:16 ~slots:s.slots ~partitions
      ~partition_of:(fun k -> Bytes.get_uint8 k 0)
      ?rows ()
  in
  let populated = mk ~rows () in
  let inserted = mk () in
  Cluster.run_on c ~machine:0 (fun st ->
      List.iter
        (fun (k, v) ->
          match Api.run_retry st ~thread:0 (fun tx -> Hashtable.insert tx inserted k v) with
          | Ok () -> ()
          | Error r -> QCheck.Test.fail_reportf "insert aborted: %a" Txn.pp_abort r)
        rows);
  let model = List.fold_left (fun m (k, v) -> M.add k v m) M.empty s.rows in
  Cluster.run_on c ~machine:1 (fun st ->
      let depth = ref 0 in
      for b = 0 to Array.length inserted.Hashtable.buckets - 1 do
        match
          Api.run_retry st ~thread:0 (fun tx ->
              (hashtable_chain tx populated b, hashtable_chain tx inserted b))
        with
        | Ok (got, want) ->
            if List.length got <> List.length want then
              QCheck.Test.fail_reportf "bucket %d: chain of %d, inserts give %d" b
                (List.length got) (List.length want);
            List.iteri
              (fun j (g, w) ->
                Array.iteri
                  (fun i (wu, wk, wv) ->
                    let gu, gk, gv = g.(i) in
                    if gu <> wu || not (Bytes.equal gk wk && Bytes.equal gv wv) then
                      QCheck.Test.fail_reportf "bucket %d chain %d slot %d differs" b j i)
                  w)
              (List.combine got want);
            depth := max !depth (List.length got)
        | Error r -> QCheck.Test.fail_reportf "chain read aborted: %a" Txn.pp_abort r
      done;
      (* present and absent keys: both read paths agree with the model *)
      List.iter
        (fun k ->
          let want = Option.map value16 (M.find_opt k model) in
          let tx_got =
            match Api.run_retry st ~thread:0 (fun tx -> Hashtable.lookup tx populated (key8 k)) with
            | Ok r -> r
            | Error r -> QCheck.Test.fail_reportf "lookup aborted: %a" Txn.pp_abort r
          in
          if tx_got <> want || Hashtable.lookup_lockfree st populated (key8 k) <> want then
            QCheck.Test.fail_reportf "lookup %d mismatch" k)
        (List.init 45 Fun.id);
      !depth)

let hashtable_populated_matches_inserts =
  QCheck.Test.make ~name:"hashtable created with rows equals inserts" ~count:25
    shape_arbitrary (fun s ->
      ignore (populated_equals_inserted s);
      true)

(* The fixed case the generator may miss: a partitioned table whose chains
   run at least three buckets deep, with repeated keys. *)
let hashtable_populated_deep_partitioned () =
  let rows = List.init 40 (fun i -> ((i * 7) mod 23, i + 1)) in
  let depth =
    populated_equals_inserted { nbuckets = 2; slots = 2; partitioned = true; rows }
  in
  Alcotest.(check bool) (Fmt.str "chain depth %d >= 3" depth) true (depth >= 3)

(* {2 The build runs at the primaries}

   A partitioned table over three regions on six machines: four
   partitions, so the first region holds two of them (140 buckets) and the
   others one each (70), and chained buckets from two rows per two-slot
   bucket on average. One transaction per 64 buckets of one region makes
   3 + 2 + 2 commits where 64 buckets of the whole table would make 5. *)

let build_table c =
  let regions = Array.init 3 (fun _ -> (Cluster.alloc_region_exn c).Wire.rid) in
  let rows = List.init 600 (fun k -> (key8 k, value16 (k + 1))) in
  let rpc = Cluster.merged_counter c Farm_obs.Obs.C_rpc_call in
  let commits = Cluster.merged_counter c Farm_obs.Obs.C_tx_commit in
  let t =
    Hashtable.create c ~regions ~buckets:280 ~ksize:8 ~vsize:16 ~slots:2 ~partitions:4
      ~partition_of:(fun k -> Bytes.get_uint8 k 0)
      ~rows ()
  in
  ( t,
    Cluster.merged_counter c Farm_obs.Obs.C_rpc_call - rpc,
    Cluster.merged_counter c Farm_obs.Obs.C_tx_commit - commits )

let hashtable_built_at_primaries () =
  let c = mk_cluster ~machines:6 () in
  let t, rpcs, commits = build_table c in
  let primaries =
    List.sort_uniq compare
      (List.map
         (fun rid -> State.primary_of (Cluster.machine c 0) rid)
         (Array.to_list t.Hashtable.regions))
  in
  Alcotest.(check bool) "regions on more than one primary" true (List.length primaries > 1);
  Alcotest.(check int) "no RPCs during the build" 0 rpcs;
  let per_region rid =
    Array.fold_left (fun n (a : Addr.t) -> if a.Addr.region = rid then n + 1 else n) 0
      t.Hashtable.buckets
  in
  Alcotest.(check (list int)) "buckets per region" [ 140; 70; 70 ]
    (List.map per_region (Array.to_list t.Hashtable.regions));
  Alcotest.(check int) "one commit per region per 64 buckets" (3 + 2 + 2) commits;
  let deepest =
    Cluster.run_on c ~machine:1 (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              List.fold_left max 0
                (List.init 280 (fun b -> List.length (hashtable_chain tx t b))))
        with
        | Ok d -> d
        | Error r -> Alcotest.failf "chain read aborted: %a" Txn.pp_abort r)
  in
  Alcotest.(check bool) (Fmt.str "buckets chain (deepest %d)" deepest) true (deepest >= 2);
  let t', _, _ = build_table (mk_cluster ~machines:6 ()) in
  Alcotest.(check bool) "same seed, same bucket addresses" true
    (t.Hashtable.buckets = t'.Hashtable.buckets);
  Cluster.run_for c ~d:(Farm_sim.Time.ms 60);
  match Farm_fault.Invariant.check c with
  | [] -> ()
  | vs -> Alcotest.failf "invariants: %a" Fmt.(list ~sep:semi Farm_fault.Invariant.pp) vs

(* {1 In-place node and bucket access against a parse/serialize reference}

   [Btree] and [Hashtable] read node and bucket words where they lie and
   edit the transaction's write buffers in place. The references below do
   it the plain way: every B-tree node parsed into arrays and serialized
   back, every bucket copied and its keys compared as sub-strings, every
   change written with [Txn.write]. In-place access changes no simulated
   event, so the same operations on two clusters of one seed allocate the
   same addresses, and after every transaction both structures must hold
   the same bytes in the same objects and have answered alike. Operations
   run in batches of several per transaction, so later ones edit buffers
   the transaction already wrote. *)

module Ref_btree = struct
  let size = Btree.node_data_size

  let read tx (t : Btree.t) addr = Btree.parse t (Txn.read tx addr ~len:(size t))

  let root tx (t : Btree.t) =
    match Codec.get_addr (Txn.read tx t.Btree.root_ptr ~len:8) 0 with
    | Some a -> a
    | None -> failwith "null root"

  let child (nd : Btree.node) key =
    let n = Array.length nd.keys in
    let rec go i = if i < n && key >= nd.keys.(i) then go (i + 1) else i in
    match Codec.decode_addr nd.slots.(go 0) with Some a -> a | None -> failwith "null child"

  let rec descend tx t addr key =
    let nd = read tx t addr in
    if nd.Btree.leaf then (addr, nd) else descend tx t (child nd key) key

  let index (nd : Btree.node) key =
    let rec go i = if i < Array.length nd.keys && nd.keys.(i) < key then go (i + 1) else i in
    go 0

  let find tx t key =
    let _, nd = descend tx t (root tx t) key in
    let i = index nd key in
    if i < Array.length nd.keys && nd.keys.(i) = key then Some nd.slots.(i) else None

  let ins a i v =
    Array.init (Array.length a + 1) (fun j -> if j < i then a.(j) else if j = i then v else a.(j - 1))

  let split tx t addr (nd : Btree.node) keys slots =
    let mid = Array.length keys / 2 in
    let sep = keys.(mid) in
    let raddr = Txn.alloc tx ~size:(size t) ~near:addr () in
    let sub a lo n = Array.sub a lo n in
    let nk = Array.length keys and ns = Array.length slots in
    let right, left =
      if nd.leaf then
        ( { nd with lo = sep; keys = sub keys mid (nk - mid); slots = sub slots mid (ns - mid) },
          { nd with hi = sep; keys = sub keys 0 mid; slots = sub slots 0 mid; next = Some raddr } )
      else
        ( { nd with lo = sep; keys = sub keys (mid + 1) (nk - mid - 1);
            slots = sub slots (mid + 1) (ns - mid - 1) },
          { nd with hi = sep; keys = sub keys 0 mid; slots = sub slots 0 (mid + 1) } )
    in
    Txn.write tx raddr (Btree.serialize t right);
    Txn.write tx addr (Btree.serialize t left);
    Some (sep, raddr)

  let rec insert_at tx t addr key value =
    let nd = read tx t addr in
    let fits keys slots =
      if Array.length keys <= t.Btree.fanout then begin
        Txn.write tx addr (Btree.serialize t { nd with keys; slots });
        None
      end
      else split tx t addr nd keys slots
    in
    if nd.leaf then begin
      let pos = index nd key in
      if pos < Array.length nd.keys && nd.keys.(pos) = key then begin
        let slots = Array.copy nd.slots in
        slots.(pos) <- value;
        fits nd.keys slots
      end
      else fits (ins nd.keys pos key) (ins nd.slots pos value)
    end
    else
      let ci =
        let rec go i = if i < Array.length nd.keys && key >= nd.keys.(i) then go (i + 1) else i in
        go 0
      in
      match insert_at tx t (child nd key) key value with
      | None -> None
      | Some (sep, r) -> fits (ins nd.keys ci sep) (ins nd.slots (ci + 1) (Codec.encode_addr r))

  let insert tx t key value =
    let root = root tx t in
    match insert_at tx t root key value with
    | None -> ()
    | Some (sep, r) ->
        let a = Txn.alloc tx ~size:(size t) ~near:root () in
        Txn.write tx a
          (Btree.serialize t
             { leaf = false; lo = min_int; hi = max_int; keys = [| sep |];
               slots = [| Codec.encode_addr root; Codec.encode_addr r |]; next = None });
        let b = Bytes.create 8 in
        Codec.set_int b 0 (Codec.encode_addr a);
        Txn.write tx t.root_ptr b

  let delete tx t key =
    let addr, nd = descend tx t (root tx t) key in
    let i = index nd key in
    if i >= Array.length nd.keys || nd.keys.(i) <> key then false
    else begin
      let drop a = Array.init (Array.length a - 1) (fun j -> if j < i then a.(j) else a.(j + 1)) in
      Txn.write tx addr (Btree.serialize t { nd with keys = drop nd.keys; slots = drop nd.slots });
      true
    end

  let range tx t ~lo ~hi =
    let rec walk (nd : Btree.node) acc =
      let acc = ref acc and over = ref false in
      Array.iteri
        (fun i k ->
          if k >= lo && k <= hi then acc := (k, nd.slots.(i)) :: !acc else if k > hi then over := true)
        nd.keys;
      match nd.next with
      | Some next when (not !over) && nd.hi <= hi -> walk (read tx t next) !acc
      | _ -> List.rev !acc
    in
    walk (snd (descend tx t (root tx t) lo)) []
end

module Ref_hashtable = struct
  let size = Hashtable.bucket_data_size
  let esz = Hashtable.entry_size

  let pad n b =
    let r = Bytes.make n '\000' in
    Bytes.blit b 0 r 0 (min n (Bytes.length b));
    r

  let find (t : Hashtable.t) data key =
    let rec go i =
      if i >= t.slots then None
      else if Bytes.get data (i * esz t) <> '\000'
              && Bytes.equal (Bytes.sub data ((i * esz t) + 1) t.ksize) key
      then Some i
      else go (i + 1)
    in
    go 0

  let free (t : Hashtable.t) data =
    let rec go i =
      if i >= t.slots then None else if Bytes.get data (i * esz t) <> '\000' then go (i + 1) else Some i
    in
    go 0

  let overflow (t : Hashtable.t) data = Codec.get_addr data (t.slots * esz t)

  let set (t : Hashtable.t) data i key value =
    Bytes.set data (i * esz t) '\001';
    Bytes.blit key 0 data ((i * esz t) + 1) t.ksize;
    Bytes.blit value 0 data ((i * esz t) + 1 + t.ksize) t.vsize

  let head t key = t.Hashtable.buckets.(Hashtable.bucket_of t key)

  let lookup tx t key =
    let key = pad t.Hashtable.ksize key in
    let rec go addr =
      let data = Txn.read tx addr ~len:(size t) in
      match find t data key with
      | Some i -> Some (Bytes.sub data ((i * esz t) + 1 + t.ksize) t.vsize)
      | None -> Option.bind (overflow t data) go
    in
    go (head t key)

  let insert tx t key value =
    let key = pad t.Hashtable.ksize key and value = pad t.Hashtable.vsize value in
    let rec go addr fr =
      let data = Bytes.copy (Txn.read tx addr ~len:(size t)) in
      match find t data key with
      | Some i ->
          set t data i key value;
          Txn.write tx addr data
      | None -> (
          let fr = match fr with Some _ -> fr | None -> Option.map (fun i -> (addr, i)) (free t data) in
          match (overflow t data, fr) with
          | Some next, _ -> go next fr
          | None, Some (fa, i) ->
              let fd = Bytes.copy (Txn.read tx fa ~len:(size t)) in
              set t fd i key value;
              Txn.write tx fa fd
          | None, None ->
              let next = Txn.alloc tx ~size:(size t) ~near:addr () in
              let fresh = Bytes.make (size t) '\000' in
              set t fresh 0 key value;
              Txn.write tx next fresh;
              Codec.set_addr data (t.slots * esz t) (Some next);
              Txn.write tx addr data)
    in
    go (head t key) None

  let delete tx t key =
    let key = pad t.Hashtable.ksize key in
    let rec go addr =
      let data = Bytes.copy (Txn.read tx addr ~len:(size t)) in
      match find t data key with
      | Some i ->
          Bytes.set data (i * esz t) '\000';
          Txn.write tx addr data;
          true
      | None -> ( match overflow t data with Some next -> go next | None -> false)
    in
    go (head t key)
end

(* Every object of a tree or table, as (packed address, bytes), in walk
   order. *)
let btree_objects tx (t : Btree.t) =
  let len = Btree.node_data_size t in
  let rec walk addr acc =
    let data = Txn.read tx addr ~len in
    let acc = (Addr.pack addr, data) :: acc in
    let nd = Btree.parse t data in
    if nd.leaf then acc
    else
      Array.fold_left
        (fun acc c -> match Codec.decode_addr c with Some c -> walk c acc | None -> acc)
        acc nd.slots
  in
  (Addr.pack t.root_ptr, Txn.read tx t.root_ptr ~len:8)
  :: List.rev (walk (Option.get (Codec.get_addr (Txn.read tx t.root_ptr ~len:8) 0)) [])

let hashtable_objects tx (t : Hashtable.t) =
  let len = Hashtable.bucket_data_size t in
  let rec chain addr acc =
    let data = Txn.read tx addr ~len in
    let acc = (Addr.pack addr, data) :: acc in
    match Codec.get_addr data (t.slots * Hashtable.entry_size t) with
    | Some next -> chain next acc
    | None -> acc
  in
  List.rev (Array.fold_left (fun acc a -> chain a acc) [] t.buckets)

let batches_arbitrary gen pp =
  QCheck.make
    ~print:(Fmt.str "%a" Fmt.(Dump.list (Dump.list pp)))
    ~shrink:QCheck.Shrink.(list ~shrink:list)
    QCheck.Gen.(list_size (int_range 1 25) (list_size (int_range 1 4) gen))

(* Run [batches] on twin clusters, one transaction per batch on both, and
   compare each batch's answers and then every object's bytes. *)
let twin_run ~create ~in_place ~reference ~objects ~final batches =
  let twin () =
    let c = mk_cluster ~machines:3 () in
    let regions = [| (Cluster.alloc_region_exn c).Wire.rid; (Cluster.alloc_region_exn c).Wire.rid |] in
    (c, create c regions)
  in
  let (c1, t1), (c2, t2) = (twin (), twin ()) in
  let run c f =
    Cluster.run_on c ~machine:0 (fun st ->
        match Api.run st ~thread:0 f with
        | Ok v -> v
        | Error r -> QCheck.Test.fail_reportf "aborted: %a" Txn.pp_abort r)
  in
  List.iteri
    (fun i batch ->
      let got = run c1 (fun tx -> List.map (in_place tx t1) batch) in
      let want = run c2 (fun tx -> List.map (reference tx t2) batch) in
      if got <> want then QCheck.Test.fail_reportf "batch %d: answers differ" i;
      let o1 = run c1 (fun tx -> objects tx t1) and o2 = run c2 (fun tx -> objects tx t2) in
      if List.map fst o1 <> List.map fst o2 then
        QCheck.Test.fail_reportf "batch %d: objects at different addresses" i;
      List.iter2
        (fun (a, b1) (_, b2) ->
          if not (Bytes.equal b1 b2) then
            QCheck.Test.fail_reportf "batch %d: object %a differs" i Addr.pp (Addr.unpack a))
        o1 o2)
    batches;
  Cluster.run_on c1 ~machine:1 (fun st -> final st t1);
  true

(* One B-tree operation's answer, through either implementation. *)
let btree_op ~insert ~delete ~find ~range tx t = function
  | Ins (k, v) -> insert tx t k v; []
  | Del k -> if delete tx t k then [ (k, 0) ] else []
  | Find k -> Option.to_list (Option.map (fun v -> (k, v)) (find tx t k))
  | Range (lo, hi) -> range tx t ~lo ~hi

let btree_in_place_matches_reference =
  QCheck.Test.make ~name:"btree in-place access equals parse/serialize reference" ~count:20
    (QCheck.pair (QCheck.int_range 3 6) (batches_arbitrary op_gen pp_op))
    (fun (fanout, batches) ->
      let model =
        List.fold_left
          (fun m -> function Ins (k, v) -> M.add k v m | Del k -> M.remove k m | _ -> m)
          M.empty (List.concat batches)
      in
      twin_run batches
        ~create:(fun c regions ->
          Cluster.run_on c ~machine:0 (fun st -> Btree.create st ~thread:0 ~regions ~fanout ()))
        ~in_place:
          (btree_op ~insert:Btree.insert ~delete:Btree.delete ~find:Btree.find ~range:Btree.range)
        ~reference:
          (btree_op ~insert:Ref_btree.insert ~delete:Ref_btree.delete ~find:Ref_btree.find
             ~range:Ref_btree.range)
        ~objects:btree_objects
        ~final:(fun st t ->
          (* the lock-free path, over internal nodes the transactions cached *)
          List.iter
            (fun k ->
              if Btree.lookup_lockfree st t k <> M.find_opt k model then
                QCheck.Test.fail_reportf "lookup_lockfree %d mismatch" k)
            (List.init 41 Fun.id)))

let hashtable_op ~insert ~delete ~lookup tx t = function
  | HIns (k, v) -> insert tx t (key8 k) (value16 v); None
  | HDel k -> if delete tx t (key8 k) then Some Bytes.empty else None
  | HFind k -> lookup tx t (key8 k)

let hashtable_in_place_matches_reference =
  QCheck.Test.make ~name:"hashtable in-place access equals copying reference" ~count:20
    (batches_arbitrary hop_gen pp_hop)
    (twin_run
       ~create:(fun c regions ->
         Hashtable.create c ~regions ~buckets:4 ~ksize:8 ~vsize:16 ~slots:2 ())
       ~in_place:
         (hashtable_op ~insert:Hashtable.insert ~delete:Hashtable.delete ~lookup:Hashtable.lookup)
       ~reference:
         (hashtable_op ~insert:Ref_hashtable.insert ~delete:Ref_hashtable.delete
            ~lookup:Ref_hashtable.lookup)
       ~objects:hashtable_objects ~final:(fun _ _ -> ()))

let suites =
  [
    ( "kv-model",
      [
        qtest btree_matches_map;
        qtest hashtable_matches_map;
        Alcotest.test_case "hashtable overflow re-insert has no stale duplicate" `Quick
          hashtable_no_stale_duplicate;
        qtest hashtable_populated_matches_inserts;
        Alcotest.test_case "hashtable created with rows: deep partitioned chains" `Quick
          hashtable_populated_deep_partitioned;
        Alcotest.test_case "hashtable built at its regions' primaries" `Quick
          hashtable_built_at_primaries;
        qtest btree_in_place_matches_reference;
        qtest hashtable_in_place_matches_reference;
      ] );
  ]
