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
        Cluster.run_on c ~machine:0 (fun st ->
            Hashtable.create st ~thread:0 ~regions:[| r1.Wire.rid |] ~buckets:8 ~ksize:8
              ~vsize:16 ~slots:2 ())
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
    Cluster.run_on c ~machine:0 (fun st ->
        Hashtable.create st ~thread:0 ~regions:[| r1.Wire.rid |] ~buckets:8 ~ksize:8
          ~vsize:16 ~slots:2 ())
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
  let mk st ?rows () =
    Hashtable.create st ~thread:0 ~regions:[| r1.Wire.rid; r2.Wire.rid |] ~buckets:s.nbuckets
      ~ksize:8 ~vsize:16 ~slots:s.slots ~partitions
      ~partition_of:(fun k -> Bytes.get_uint8 k 0)
      ?rows ()
  in
  let populated, inserted =
    Cluster.run_on c ~machine:0 (fun st ->
        let populated = mk st ~rows () in
        let inserted = mk st () in
        List.iter
          (fun (k, v) ->
            match Api.run_retry st ~thread:0 (fun tx -> Hashtable.insert tx inserted k v) with
            | Ok () -> ()
            | Error r -> QCheck.Test.fail_reportf "insert aborted: %a" Txn.pp_abort r)
          rows;
        (populated, inserted))
  in
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
      ] );
  ]
