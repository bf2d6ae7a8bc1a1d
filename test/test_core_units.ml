open Farm_sim
open Farm_core

let test name fn = Alcotest.test_case name `Quick fn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qtest = QCheck_alcotest.to_alcotest

(* {1 Object layout} *)

let header_roundtrip =
  QCheck.Test.make ~name:"header encodes lock/alloc/version" ~count:500
    QCheck.(triple bool bool (int_bound 1_000_000_000))
    (fun (locked, allocated, version) ->
      let h = Obj_layout.make ~locked ~allocated ~version in
      Obj_layout.is_locked h = locked
      && Obj_layout.is_allocated h = allocated
      && Obj_layout.version h = version)

let header_with_ops () =
  let h = Obj_layout.make ~locked:false ~allocated:true ~version:7 in
  let h = Obj_layout.with_locked h true in
  check_bool "locked" true (Obj_layout.is_locked h);
  check_int "version preserved" 7 (Obj_layout.version h);
  let h = Obj_layout.with_version h 8 in
  check_int "new version" 8 (Obj_layout.version h);
  check_bool "still locked" true (Obj_layout.is_locked h);
  let h = Obj_layout.with_allocated h false in
  check_bool "freed" false (Obj_layout.is_allocated h)

let header_cas () =
  let mem = Farm_nvram.Pagemem.create 64 in
  let h0 = Obj_layout.make ~locked:false ~allocated:true ~version:1 in
  Obj_layout.set mem ~off:8 h0;
  let h1 = Obj_layout.with_locked h0 true in
  check_bool "cas succeeds" true (Obj_layout.cas mem ~off:8 ~expected:h0 ~desired:h1);
  check_bool "cas with stale expected fails" false
    (Obj_layout.cas mem ~off:8 ~expected:h0 ~desired:h0);
  check_bool "locked now" true (Obj_layout.is_locked (Obj_layout.get mem ~off:8))

let data_roundtrip () =
  let mem = Farm_nvram.Pagemem.create 64 in
  Obj_layout.write_data mem ~off:0 (Bytes.of_string "hello");
  let d = Obj_layout.read_data mem ~off:0 ~len:5 in
  Alcotest.(check string) "data" "hello" (Bytes.to_string d)

(* {1 Paged region memory against a flat model}

   Random header and data accesses on a region of three pages and a short
   last one, with offsets drawn near page boundaries and the region's end,
   must read exactly what a flat [Bytes] region would. *)

module Pagemem = Farm_nvram.Pagemem

type mem_op =
  | Get of int
  | Set of int * int64
  | Cas of int * bool * int64  (* true: expect the current word *)
  | Read of int * int
  | Write of int * string
  | Sub of int * int

let paged_size = (3 * Pagemem.page_size) + 100

let print_mem_op = function
  | Get o -> Printf.sprintf "get %d" o
  | Set (o, v) -> Printf.sprintf "set %d %Ld" o v
  | Cas (o, hit, v) -> Printf.sprintf "cas %d %b %Ld" o hit v
  | Read (o, n) -> Printf.sprintf "read_data %d %d" o n
  | Write (o, s) -> Printf.sprintf "write_data %d %S" o s
  | Sub (o, n) -> Printf.sprintf "sub %d %d" o n

(* an offset that leaves [room] bytes before the region's end *)
let gen_off ~room =
  let open QCheck.Gen in
  let hi = paged_size - room in
  let near_boundary p d = max 0 (min hi ((p * Pagemem.page_size) + d)) in
  frequency
    [
      (2, int_range 0 hi);
      (3, map2 near_boundary (int_range 1 3) (int_range (-24) 8));
      (1, map (fun d -> hi - d) (int_range 0 8));
    ]

let gen_mem_op =
  let open QCheck.Gen in
  let h = Obj_layout.header_size in
  frequency
    [
      (2, map (fun o -> Get o) (gen_off ~room:8));
      (2, map2 (fun o v -> Set (o, v)) (gen_off ~room:8) ui64);
      (2, map3 (fun o hit v -> Cas (o, hit, v)) (gen_off ~room:8) bool ui64);
      (1, int_range 0 40 >>= fun n -> map (fun o -> Read (o, n)) (gen_off ~room:(h + n)));
      ( 2,
        string_size (int_range 0 40) >>= fun s ->
        map (fun o -> Write (o, s)) (gen_off ~room:(h + String.length s)) );
      (1, int_range 0 40 >>= fun n -> map (fun o -> Sub (o, n)) (gen_off ~room:n));
    ]

let paged_matches_flat =
  QCheck.Test.make ~name:"paged memory matches flat bytes" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_mem_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_mem_op))
    (fun ops ->
      let flat = Bytes.make paged_size '\000' and mem = Pagemem.create paged_size in
      let h = Obj_layout.header_size in
      let step = function
        | Get o -> Int64.equal (Obj_layout.get mem ~off:o) (Bytes.get_int64_le flat o)
        | Set (o, v) ->
            Obj_layout.set mem ~off:o v;
            Bytes.set_int64_le flat o v;
            true
        | Cas (o, hit, v) ->
            let cur = Bytes.get_int64_le flat o in
            let expected = if hit then cur else Int64.lognot cur in
            let swapped = Obj_layout.cas mem ~off:o ~expected ~desired:v in
            if swapped then Bytes.set_int64_le flat o v;
            swapped = hit
        | Read (o, n) -> Bytes.equal (Obj_layout.read_data mem ~off:o ~len:n) (Bytes.sub flat (o + h) n)
        | Write (o, s) ->
            Obj_layout.write_data mem ~off:o (Bytes.of_string s);
            Bytes.blit_string s 0 flat (o + h) (String.length s);
            true
        | Sub (o, n) -> Bytes.equal (Pagemem.sub mem o n) (Bytes.sub flat o n)
      in
      List.for_all step ops && Bytes.equal (Pagemem.sub mem 0 paged_size) flat)

(* {1 Slab slots} *)

let slot_sized_to_object =
  QCheck.Test.make ~name:"slot: multiple of 16, fits header + data, pads < 16" ~count:500
    QCheck.(int_range 0 4096)
    (fun data ->
      let slot = Allocmgr.slot_size data and need = Obj_layout.header_size + data in
      slot mod 16 = 0 && slot >= need && slot < need + 16)

(* {1 Txid / Addr} *)

let txid_ordering () =
  let a = Txid.make ~config:1 ~machine:2 ~thread:3 ~local:4 in
  let b = Txid.make ~config:1 ~machine:2 ~thread:3 ~local:5 in
  check_bool "ordered by local" true (Txid.compare a b < 0);
  check_bool "equal" true (Txid.equal a a);
  check_bool "coord key" true (Txid.coord_key a = (2, 3));
  check_bool "coord id packs machine+thread" true
    (Txid.coord_id a = Txid.coord_id b && Txid.coord_id a <> Txid.coord_id (Txid.make ~config:1 ~machine:2 ~thread:4 ~local:0))

let addr_map () =
  let a = Addr.make ~region:1 ~offset:64 in
  let b = Addr.make ~region:1 ~offset:128 in
  let c = Addr.make ~region:2 ~offset:0 in
  check_bool "pack round-trips" true (Addr.equal a (Addr.unpack (Addr.pack a)));
  check_bool "ordering" true (Addr.compare a b < 0);
  check_bool "packed keys order as compare" true (Addr.pack a < Addr.pack b && Addr.pack b < Addr.pack c)

(* {1 Config} *)

let config_backup_cms () =
  let c = Config.make ~id:1 ~members:[ 0; 1; 2; 3; 4 ] ~domains:[] ~cm:3 in
  Alcotest.(check (list int)) "successors wrap" [ 4; 0 ] (Config.backup_cms c ~k:2);
  let c2 = Config.make ~id:1 ~members:[ 0; 1; 2 ] ~domains:[] ~cm:2 in
  Alcotest.(check (list int)) "wrap from top" [ 0; 1 ] (Config.backup_cms c2 ~k:2)

let config_recovery_coordinator_deterministic () =
  let c = Config.make ~id:3 ~members:[ 1; 4; 7 ] ~domains:[] ~cm:1 in
  let txid = Txid.make ~config:2 ~machine:9 ~thread:0 ~local:5 in
  let a = Config.recovery_coordinator c txid in
  let b = Config.recovery_coordinator c txid in
  check_int "deterministic" a b;
  check_bool "member" true (Config.is_member c a)

let config_cm_must_be_member () =
  Alcotest.check_raises "cm not member"
    (Invalid_argument "Config.make: CM must be a member") (fun () ->
      ignore (Config.make ~id:1 ~members:[ 1; 2 ] ~domains:[] ~cm:5))

(* {1 Placement} *)

let mk_constraints ?(cap = 100) ~members ~domain_of ~load () =
  {
    Placement.members;
    domain_of;
    load_of = (fun m -> match List.assoc_opt m load with Some l -> l | None -> 0);
    capacity_of = (fun _ -> cap);
    replication = 3;
  }

let placement_distinct_domains () =
  (* machines 0-5 in 3 domains of 2 *)
  let c = mk_constraints ~members:[ 0; 1; 2; 3; 4; 5 ] ~domain_of:(fun m -> m / 2) ~load:[] () in
  match Placement.choose c () with
  | Some (p, bs) ->
      let all = p :: bs in
      check_int "replication" 3 (List.length all);
      check_bool "distinct domains" true (Placement.domains_distinct c all)
  | None -> Alcotest.fail "placement failed"

let placement_impossible () =
  (* only 2 domains for replication 3 *)
  let c = mk_constraints ~members:[ 0; 1; 2; 3 ] ~domain_of:(fun m -> m mod 2) ~load:[] () in
  check_bool "infeasible" true (Placement.choose c () = None)

let placement_balances_load () =
  let c =
    mk_constraints ~members:[ 0; 1; 2; 3; 4; 5 ]
      ~domain_of:(fun m -> m)
      ~load:[ (0, 10); (1, 10); (2, 10) ]
      ()
  in
  match Placement.choose c () with
  | Some (p, bs) ->
      List.iter
        (fun m -> check_bool "least-loaded picked" true (m >= 3))
        (p :: bs)
  | None -> Alcotest.fail "placement failed"

let placement_capacity () =
  let c =
    mk_constraints ~cap:5 ~members:[ 0; 1; 2; 3 ]
      ~domain_of:(fun m -> m)
      ~load:[ (0, 5) ]
      ()
  in
  match Placement.choose c () with
  | Some (p, bs) -> check_bool "full machine excluded" false (List.mem 0 (p :: bs))
  | None -> Alcotest.fail "placement failed"

let placement_colocate () =
  let c = mk_constraints ~members:[ 0; 1; 2; 3; 4; 5 ] ~domain_of:(fun m -> m) ~load:[] () in
  match Placement.choose c ~colocate_with:(4, [ 5; 1 ]) () with
  | Some (p, bs) ->
      Alcotest.(check (list int)) "locality honoured" [ 4; 5; 1 ] (p :: bs)
  | None -> Alcotest.fail "placement failed"

let placement_replacements_avoid_survivor_domains () =
  let c = mk_constraints ~members:[ 0; 1; 2; 3; 4; 5 ] ~domain_of:(fun m -> m / 2) ~load:[] () in
  match Placement.choose_replacements c ~survivors:[ 0; 2 ] ~needed:1 with
  | Some [ m ] ->
      check_bool "fresh domain" true (m / 2 <> 0 && m / 2 <> 1)
  | Some _ | None -> Alcotest.fail "replacement failed"

let placement_qcheck =
  QCheck.Test.make ~name:"placement always satisfies constraints" ~count:200
    QCheck.(pair (int_range 3 12) (int_bound 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let members = List.init n Fun.id in
      let domains = Array.init n (fun _ -> Rng.int rng (max 3 (n / 2))) in
      let c =
        mk_constraints ~members ~domain_of:(fun m -> domains.(m)) ~load:[] ()
      in
      match Placement.choose c () with
      | Some (p, bs) -> Placement.domains_distinct c (p :: bs) && List.length bs = 2
      | None ->
          (* only acceptable when fewer than 3 distinct domains exist *)
          List.length (List.sort_uniq compare (Array.to_list domains)) < 3)

(* {1 Ring log} *)

let mk_log () = Ringlog.create ~sender:0 ~receiver:1 ~capacity:4096

let dummy_record txid =
  { Wire.payload = Wire.Commit_primary { txid; ts = 0 }; truncations = []; low_bound = 0; cfg = 1 }

let tx n = Txid.make ~config:1 ~machine:0 ~thread:0 ~local:n

let ringlog_reserve_release () =
  let log = mk_log () in
  check_bool "reserve ok" true (Ringlog.reserve log 1000);
  check_bool "reserve more" true (Ringlog.reserve log 3000);
  check_bool "over capacity" false (Ringlog.reserve log 100);
  Ringlog.unreserve log 3000;
  check_bool "after release" true (Ringlog.reserve log 100)

(* A log's first record: the path that creates its receiver tables. *)
let append_retain_truncate e log =
  let seen = ref [] in
  Ringlog.set_on_append log (fun _ entry -> seen := entry :: !seen);
  check_bool "reserve" true (Ringlog.reserve log 200);
  Ringlog.consume_reservation log 100;
  Ringlog.dma_append log (dummy_record (tx 1)) ~size:100;
  check_int "delivered" 1 (List.length !seen);
  check_int "used" 100 (Ringlog.used log);
  check_int "pending count" 1 (Ringlog.pending_count log (tx 1));
  let entry = List.hd !seen in
  Ringlog.retain log entry;
  check_int "pending cleared" 0 (Ringlog.pending_count log (tx 1));
  check_int "resident" 1 (List.length (Ringlog.resident_records log (tx 1)));
  ignore (Ringlog.truncate log e (tx 1));
  check_int "space freed" 0 (Ringlog.used log);
  Ringlog.unreserve log 100 (* the unconsumed remainder of the reservation *);
  Engine.run e;
  check_bool "sender estimate updated lazily" true (Ringlog.reserve log 4000)

let ringlog_append_retain_truncate () = append_retain_truncate (Engine.create ()) (mk_log ())

let ringlog_first_use () =
  let e = Engine.create () in
  let log = mk_log () in
  check_int "fresh pending count" 0 (Ringlog.pending_count log (tx 1));
  check_int "fresh resident" 0 (List.length (Ringlog.resident_records log (tx 1)));
  check_int "fresh truncate" 0 (Ringlog.truncate log e (tx 1));
  let visited = ref 0 in
  Ringlog.iter_resident log (fun _ _ -> incr visited);
  check_int "fresh iter_resident" 0 !visited;
  check_int "fresh used" 0 (Ringlog.used log);
  append_retain_truncate e log

(* Recovery walks [iter_resident], so its order is part of the determinism
   contract: it must be the order of a 64-bucket table created with the
   log, under the same insert and remove history. *)
let ringlog_resident_order =
  QCheck.Test.make ~name:"ring log resident order matches an eager 64-bucket table" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 400) (pair bool (int_bound 300)))
    (fun ops ->
      let e = Engine.create () in
      let log = Ringlog.create ~sender:0 ~receiver:1 ~capacity:max_int in
      Ringlog.set_on_append log (fun log en -> Ringlog.retain log en);
      let eager = Txid.Tbl.create 64 in
      List.iter
        (fun (append, n) ->
          let txid = Txid.make ~config:1 ~machine:(n mod 7) ~thread:(n mod 3) ~local:n in
          if append then begin
            Ringlog.dma_append log (dummy_record txid) ~size:8;
            Txid.Tbl.replace eager txid ()
          end
          else begin
            ignore (Ringlog.truncate log e txid);
            Txid.Tbl.remove eager txid
          end)
        ops;
      let order = ref [] and expected = ref [] in
      Ringlog.iter_resident log (fun txid _ -> order := txid :: !order);
      Txid.Tbl.iter (fun txid () -> expected := txid :: !expected) eager;
      List.equal Txid.equal !order !expected)

(* The same contract past the eager table's resizes, at 128, 256 and 512
   resident transactions, which the random lists above seldom reach; then
   removals and re-insertions, which go to the head of their bucket. *)
let ringlog_resident_order_resized () =
  let e = Engine.create () in
  let log = Ringlog.create ~sender:0 ~receiver:1 ~capacity:max_int in
  Ringlog.set_on_append log (fun log en -> Ringlog.retain log en);
  let eager = Txid.Tbl.create 64 in
  let txid n = Txid.make ~config:1 ~machine:(n mod 7) ~thread:(n mod 3) ~local:n in
  let append n =
    Ringlog.dma_append log (dummy_record (txid n)) ~size:8;
    Txid.Tbl.replace eager (txid n) ()
  and truncate n =
    ignore (Ringlog.truncate log e (txid n));
    Txid.Tbl.remove eager (txid n)
  in
  for n = 0 to 599 do
    append n
  done;
  for n = 0 to 599 do
    if n mod 3 = 0 then truncate n
  done;
  for n = 0 to 299 do
    if n mod 3 = 0 then append n
  done;
  let order = ref [] and expected = ref [] in
  Ringlog.iter_resident log (fun txid _ -> order := txid :: !order);
  Txid.Tbl.iter (fun txid () -> expected := txid :: !expected) eager;
  check_int "resident" (Txid.Tbl.length eager) (List.length !order);
  check_bool "order" true (List.equal Txid.equal !order !expected)

(* The receiver keeps one entry per transaction for both its unprocessed
   count and its resident records, dropped when both are empty. Whatever
   the interleaving of appends, processing (retain or discard) and
   truncation, the count must be what a separate per-transaction counter
   says: up on each append, down on each processing, untouched by
   truncation. *)
type ringlog_op = Append of int | Process of int * bool | Truncate of int

let ringlog_pending_counts =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          (4, map (fun n -> Append n) (int_bound 20));
          (4, map2 (fun i keep -> Process (i, keep)) nat bool);
          (1, map (fun n -> Truncate n) (int_bound 20));
        ])
  in
  Test.make ~name:"ring log unprocessed counts match a reference counter" ~count:200
    (make Gen.(list_size (int_range 1 300) op))
    (fun ops ->
      let e = Engine.create () in
      let log = Ringlog.create ~sender:0 ~receiver:1 ~capacity:max_int in
      let delivered = ref [] in
      Ringlog.set_on_append log (fun _ en -> delivered := en :: !delivered);
      let expected = Hashtbl.create 16 in
      let count n = Option.value ~default:0 (Hashtbl.find_opt expected n) in
      let touched = ref [] in
      List.iter
        (function
          | Append n ->
              Ringlog.dma_append log (dummy_record (tx n)) ~size:8;
              Hashtbl.replace expected n (count n + 1);
              touched := n :: !touched
          | Process (i, keep) -> (
              match !delivered with
              | [] -> ()
              | l ->
                  let en = List.nth l (i mod List.length l) in
                  delivered := List.filter (fun x -> x != en) l;
                  if keep then Ringlog.retain log en else Ringlog.discard log e en;
                  let n =
                    match Ringlog.txid_of_record en.Ringlog.record with
                    | Some t -> t.Txid.local
                    | None -> assert false
                  in
                  Hashtbl.replace expected n (count n - 1))
          | Truncate n -> ignore (Ringlog.truncate log e (tx n)))
        ops;
      List.for_all (fun n -> Ringlog.pending_count log (tx n) = count n) !touched)

let ringlog_discard () =
  let e = Engine.create () in
  let log = mk_log () in
  let entry = ref None in
  Ringlog.set_on_append log (fun _ en -> entry := Some en);
  Ringlog.consume_reservation log 50;
  Ringlog.dma_append log (dummy_record (tx 2)) ~size:50;
  Ringlog.discard log e (Option.get !entry);
  check_int "freed" 0 (Ringlog.used log);
  check_int "no resident" 0 (List.length (Ringlog.resident_records log (tx 2)))

let ringlog_space_qcheck =
  QCheck.Test.make ~name:"ring log space accounting stays consistent" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 60) (int_range 10 200))
    (fun sizes ->
      let e = Engine.create () in
      let log = Ringlog.create ~sender:0 ~receiver:1 ~capacity:1_000_000 in
      let entries = ref [] in
      Ringlog.set_on_append log (fun _ en -> entries := en :: !entries);
      let total = ref 0 in
      List.iteri
        (fun i size ->
          if Ringlog.reserve log size then begin
            Ringlog.consume_reservation log size;
            Ringlog.dma_append log (dummy_record (tx i)) ~size;
            total := !total + size
          end)
        sizes;
      let used_ok = Ringlog.used log = !total in
      (* retain then truncate everything: space returns to zero *)
      List.iter (fun en -> Ringlog.retain log en) !entries;
      List.iteri (fun i _ -> ignore (Ringlog.truncate log e (tx i))) sizes;
      Engine.run e;
      used_ok && Ringlog.used log = 0)

(* {1 Wire sizes} *)

let wire_sizes_monotone () =
  let w v =
    {
      Wire.addr = Addr.make ~region:1 ~offset:0;
      version = 1;
      value = Bytes.make v 'x';
      alloc_op = Wire.Alloc_none;
      ts = 0;
    }
  in
  let p n = { Wire.txid = tx 0; regions_written = [ 1 ]; writes = List.init n (fun _ -> w 32) } in
  let size n = Wire.record_bytes { Wire.payload = Wire.Lock (p n); truncations = []; low_bound = 0; cfg = 1 } in
  check_bool "more writes, bigger record" true (size 4 > size 1);
  let with_trunc =
    Wire.record_bytes
      { Wire.payload = Wire.Lock (p 1); truncations = [ tx 1; tx 2 ]; low_bound = 0; cfg = 1 }
  in
  check_bool "piggyback adds bytes" true (with_trunc > size 1)


(* {1 Recovery evidence, vote and decide (§5.3)} *)

let ev_tx = Txid.make ~config:1 ~machine:2 ~thread:0 ~local:5

(* Items of one address and timestamp are identical, as the items of one
   write are in every record that carries it. *)
let item (region, slot, ts) =
  {
    Wire.addr = { Addr.region; offset = 8 * slot };
    version = slot;
    value = Bytes.make 4 (Char.chr (65 + slot));
    alloc_op = Wire.Alloc_none;
    ts;
  }

(* As the commit path builds them: regions sorted, one item per address. *)
let payload regions items =
  let items = List.sort_uniq (fun (r, s, _) (r', s', _) -> compare (r, s) (r', s')) items in
  {
    Wire.txid = ev_tx;
    regions_written = List.sort_uniq Int.compare regions;
    writes = List.map item items;
  }

let gen_payload =
  QCheck.Gen.(
    map2 payload
      (list_size (int_range 0 3) (int_bound 4))
      (list_size (int_range 0 4) (triple (int_bound 2) (int_bound 3) (oneofl [ 0; 7 ]))))

let gen_evidence =
  QCheck.Gen.(
    map3
      (fun regions saw p -> { Wire.ev_txid = ev_tx; ev_regions = regions; ev_saw = saw; ev_payload = p })
      (list_size (int_range 0 3) (int_bound 4))
      (int_bound 63) (opt gen_payload))

let gen_record =
  QCheck.Gen.(
    oneof
      [
        map (fun p -> Wire.Lock p) gen_payload;
        map (fun p -> Wire.Commit_backup p) gen_payload;
        return (Wire.Commit_primary { txid = ev_tx; ts = 9 });
        return (Wire.Abort ev_tx);
      ])

(* Flags and payload, the payload's items as a set. *)
let ev_key (e : Wire.tx_evidence) =
  ( e.Wire.ev_saw,
    Option.map
      (fun (p : Wire.lock_payload) ->
        ( p.Wire.regions_written,
          List.sort compare
            (List.map
               (fun (w : Wire.write_item) -> (w.Wire.addr.Addr.region, w.Wire.addr.Addr.offset, w.Wire.ts))
               p.Wire.writes) ))
      e.Wire.ev_payload )

let evidence_merge_laws =
  QCheck.Test.make ~name:"merge is commutative and idempotent on flags and payload" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_evidence gen_evidence))
    (fun (a, b) ->
      ev_key (Evidence.merge a b) = ev_key (Evidence.merge b a)
      && ev_key (Evidence.merge a a) = ev_key a
      && ev_key (Evidence.merge (Evidence.merge a b) b) = ev_key (Evidence.merge a b))

let evidence_backup_ts_wins () =
  let lock = Evidence.of_record ev_tx (Wire.Lock (payload [ 0 ] [ (0, 1, 0) ])) in
  let backup = Evidence.of_record ev_tx (Wire.Commit_backup (payload [ 0 ] [ (0, 1, 42) ])) in
  List.iter
    (fun (name, ev) ->
      match ev.Wire.ev_payload with
      | Some { Wire.writes = [ w ]; _ } -> check_int name 42 w.Wire.ts
      | _ -> Alcotest.fail (name ^ ": expected one write item"))
    [ ("lock then backup", Evidence.merge lock backup); ("backup then lock", Evidence.merge backup lock) ]

(* The drain and the vote-request path see the same evidence: records
   added one by one into a machine's table equal [of_records] over the
   log's resident records. *)
let evidence_of_records_is_add_fold =
  QCheck.Test.make ~name:"of_records of a log equals folding add over its records" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 6) gen_record))
    (fun payloads ->
      let log = Ringlog.create ~sender:0 ~receiver:1 ~capacity:max_int in
      Ringlog.set_on_append log (fun log en -> Ringlog.retain log en);
      List.iter
        (fun payload ->
          Ringlog.dma_append log { Wire.payload; truncations = []; low_bound = 0; cfg = 1 } ~size:8)
        payloads;
      let records = Ringlog.resident_records log ev_tx in
      let tbl = Txid.Tbl.create 4 in
      List.iter
        (fun (r : Wire.log_record) ->
          ignore (Evidence.add tbl (Evidence.of_record ev_tx r.Wire.payload)))
        records;
      List.length records = List.length payloads
      && Txid.Tbl.find_opt tbl ev_tx = Some (Evidence.of_records ev_tx records))

let evidence_add_then_mark () =
  let tbl = Txid.Tbl.create 4 in
  let v = Evidence.add tbl (Evidence.of_record ev_tx (Wire.Lock (payload [ 0 ] [ (0, 1, 0) ]))) in
  Evidence.mark tbl ev_tx Evidence.saw_abort_recovery;
  check_int "returned value keeps its flags" Evidence.saw_lock v.Wire.ev_saw;
  check_bool "table entry marked" true
    (match Txid.Tbl.find_opt tbl ev_tx with
    | Some e -> e.Wire.ev_saw = Evidence.saw_lock lor Evidence.saw_abort_recovery
    | None -> false);
  Evidence.mark tbl (Txid.make ~config:1 ~machine:3 ~thread:0 ~local:1) Evidence.saw_abort;
  check_int "mark creates no entry" 1 (Txid.Tbl.length tbl)

let with_payload p = { (Evidence.empty ev_tx) with Wire.ev_payload = Some p }

let region_of (w : Wire.write_item) = w.Wire.addr.Addr.region

(* §5.3 step 4 takes a region's writes from the payload: exactly the items
   of that region, in payload order. *)
let evidence_writes_to () =
  let p = payload [ 0; 1 ] [ (0, 1, 0); (1, 2, 0); (0, 3, 0) ] in
  let ev = with_payload p in
  let offsets rid =
    List.map (fun (w : Wire.write_item) -> w.Wire.addr.Addr.offset) (Evidence.writes_to ev ~rid)
  in
  Alcotest.(check (list int)) "region 0" [ 8; 24 ] (offsets 0);
  Alcotest.(check (list int)) "region 1" [ 16 ] (offsets 1);
  Alcotest.(check (list int)) "a region it does not write" [] (offsets 2);
  check_int "no payload" 0 (List.length (Evidence.writes_to (Evidence.empty ev_tx) ~rid:0))

let evidence_writes_to_partitions =
  QCheck.Test.make ~name:"writes_to partitions the payload by region" ~count:200
    (QCheck.make gen_evidence) (fun ev ->
      let all = match ev.Wire.ev_payload with Some p -> p.Wire.writes | None -> [] in
      List.for_all
        (fun rid -> List.for_all (fun w -> region_of w = rid) (Evidence.writes_to ev ~rid))
        [ 0; 1; 2 ]
      && List.sort compare (List.concat_map (fun rid -> Evidence.writes_to ev ~rid) [ 0; 1; 2 ])
         = List.sort compare all)

(* Only the cases whose answer does not depend on how a payload that
   writes other regions is treated: evidence without a payload never
   credits a backup, and a payload with a write to the region does. *)
let evidence_credits () =
  for rid = 0 to 2 do
    check_bool (Printf.sprintf "no payload, region %d" rid) false
      (Evidence.credits (Evidence.empty ev_tx) ~rid);
    check_bool (Printf.sprintf "flags but no payload, region %d" rid) false
      (Evidence.credits
         {
           (Evidence.empty ev_tx) with
           Wire.ev_saw = Evidence.saw_lock lor Evidence.saw_commit_backup;
         }
         ~rid)
  done;
  let ev = with_payload (payload [ 0; 1 ] [ (0, 1, 0); (1, 2, 7) ]) in
  check_bool "writes region 0" true (Evidence.credits ev ~rid:0);
  check_bool "writes region 1" true (Evidence.credits ev ~rid:1)

(* §5.3 step 5: the backups not credited with the transaction, in order;
   nothing without a payload to send. *)
let evidence_replicate_to () =
  let other = Txid.make ~config:1 ~machine:3 ~thread:0 ~local:9 in
  let ev = with_payload (payload [ 0 ] [ (0, 1, 0) ]) in
  let check name expected ~credited =
    Alcotest.(check (list int))
      name expected
      (Evidence.replicate_to ev ~backups:[ 5; 3; 4 ] ~credited)
  in
  check "nobody credited" [ 5; 3; 4 ] ~credited:[];
  check "one credited" [ 5; 4 ] ~credited:[ (3, ev_tx) ];
  check "credited with another transaction" [ 5; 3; 4 ] ~credited:[ (3, other); (2, ev_tx) ];
  check "all credited" [] ~credited:[ (4, other); (4, ev_tx); (5, ev_tx); (3, ev_tx) ];
  Alcotest.(check (list int)) "no payload" []
    (Evidence.replicate_to
       { (Evidence.empty ev_tx) with Wire.ev_saw = Evidence.saw_commit_primary }
       ~backups:[ 5; 3; 4 ] ~credited:[])

let vote_t = Alcotest.testable Wire.pp_vote ( = )

(* §5.3 step 6, over every combination of the six flags. *)
let evidence_vote_table () =
  for saw = 0 to 63 do
    let has f = saw land f <> 0 in
    let expected =
      if has Evidence.saw_commit_primary || has Evidence.saw_commit_recovery then
        Wire.Vote_commit_primary
      else if has Evidence.saw_commit_backup && not (has Evidence.saw_abort_recovery) then
        Wire.Vote_commit_backup
      else if has Evidence.saw_lock && not (has Evidence.saw_abort_recovery) then Wire.Vote_lock
      else Wire.Vote_abort
    in
    Alcotest.check vote_t (Printf.sprintf "saw %d" saw) expected
      (Evidence.vote { (Evidence.empty ev_tx) with Wire.ev_saw = saw })
  done;
  Alcotest.check vote_t "nothing seen" Wire.Vote_abort (Evidence.vote (Evidence.empty ev_tx));
  Alcotest.check vote_t "ABORT-RECOVERY beats COMMIT-BACKUP" Wire.Vote_abort
    (Evidence.vote
       { (Evidence.empty ev_tx) with
         Wire.ev_saw = Evidence.saw_commit_backup lor Evidence.saw_abort_recovery })

let evidence_decide () =
  let check name expected votes =
    Alcotest.(check (option bool)) name expected (Evidence.decide votes)
  in
  let open Wire in
  check "commit-primary decides with votes missing" (Some true)
    [ None; Some Vote_commit_primary; Some Vote_abort ];
  check "all voted, one commit-backup, rest lock/truncated" (Some true)
    [ Some Vote_lock; Some Vote_commit_backup; Some Vote_truncated ];
  check "all commit-backup" (Some true) [ Some Vote_commit_backup; Some Vote_commit_backup ];
  check "no commit-backup" (Some false) [ Some Vote_lock; Some Vote_truncated ];
  check "an abort vote" (Some false) [ Some Vote_commit_backup; Some Vote_abort ];
  check "an unknown vote" (Some false) [ Some Vote_commit_backup; Some Vote_unknown ];
  check "a vote missing" None [ Some Vote_commit_backup; None ];
  check "only missing votes" None [ None; None ]

(* {1 Calls with a deadline}

   Each case runs [Comms.call ~timeout] from machine 0 to machine 1 of two
   bare machines, so the engine queues nothing but the call's own events. *)

let ping = Wire.Fetch_mapping { rid = 0 }

let calling ?(on_request = ignore) ~answer () =
  let sts = Test_util.bare_states 2 in
  let st = sts.(0) in
  Farm_net.Fabric.set_handler st.State.fabric 1 (fun ~src:_ ~reply m ->
      on_request st;
      if answer then Comms.reply_to reply m);
  (st, st.State.engine)

(* An answered call takes its timer with it: the engine holds as many
   events when the call returns as before it was made, and nothing once
   the reply is in. *)
let call_answered_leaves_no_timer () =
  let st, e = calling ~answer:true () in
  let before = ref (-1) and after = ref (-1) and got = ref None in
  Proc.spawn ~ctx:st.State.ctx e (fun () ->
      before := Engine.pending e;
      got := Some (Comms.call st ~dst:1 ~timeout:(Time.ms 50) ping);
      after := Engine.pending e);
  Engine.run ~until:(Time.ms 10) e;
  check_bool "answered" true (match !got with Some (Ok _) -> true | _ -> false);
  check_int "pending as before the call" !before !after;
  check_int "nothing queued after the reply" 0 (Engine.pending e)

(* An unanswered call fails at its deadline, which runs from the instant
   the request leaves, after the sender's CPU cost. *)
let call_times_out_at_deadline () =
  let st, e = calling ~answer:false () in
  let issued = ref Time.zero and returned = ref Time.zero and got = ref None in
  Proc.spawn ~ctx:st.State.ctx e (fun () ->
      issued := Proc.now ();
      got := Some (Comms.call st ~dst:1 ~timeout:(Time.ms 1) ping);
      returned := Proc.now ());
  Engine.run e;
  check_bool "timed out" true (!got = Some (Error `Timeout));
  check_int "at the deadline"
    (Time.to_ns
       (Time.add !issued (Time.add Farm_net.Params.default.Farm_net.Params.cpu_rpc_send (Time.ms 1))))
    (Time.to_ns !returned)

(* A machine killed with a call outstanding: its processes are cancelled
   once the request has reached machine 1, and the reply its NIC still
   takes wakes the parked caller only to end it. The timer goes with the
   caller. *)
let call_cancelled_leaves_no_timer () =
  let st, e =
    calling ~answer:true ~on_request:(fun st -> Proc.Ctx.cancel st.State.ctx) ()
  in
  let returned = ref false in
  Proc.spawn ~ctx:st.State.ctx e (fun () ->
      ignore (Comms.call st ~dst:1 ~timeout:(Time.ms 50) ping);
      returned := true);
  Engine.run ~until:(Time.ms 10) e;
  check_bool "caller cancelled" false !returned;
  check_int "nothing queued" 0 (Engine.pending e)

(* {1 Truncation tracking}

   [mark_truncated], [update_low_bound] and [is_truncated] against a plain
   set of truncated ids and the highest low bound, per coordinator thread;
   the tracker keeps exactly the marked ids at or above its bound. *)

type trunc_op = Mark of int | Low of int

let trunc_model_qcheck =
  let op =
    QCheck.Gen.(
      pair bool
        (frequency [ (4, map (fun l -> Mark l) (int_bound 120)); (1, map (fun l -> Low l) (int_bound 120)) ]))
  in
  let print (c, op) =
    Printf.sprintf "(%b, %s)" c
      (match op with Mark l -> Printf.sprintf "Mark %d" l | Low l -> Printf.sprintf "Low %d" l)
  in
  QCheck.Test.make ~name:"truncation tracking matches a set of truncated ids" ~count:200
    QCheck.(make ~print:(Print.list print) Gen.(list_size (int_bound 150) op))
    (fun ops ->
      let st = (Test_util.bare_states 1).(0) in
      let txid second l =
        if second then Txid.make ~config:1 ~machine:3 ~thread:2 ~local:l
        else Txid.make ~config:1 ~machine:0 ~thread:0 ~local:l
      in
      let module S = Set.Make (Int) in
      let marks = [| S.empty; S.empty |] and low = [| 0; 0 |] in
      List.for_all
        (fun (second, op) ->
          let c = Bool.to_int second in
          let coord = Txid.coord_id (txid second 0) in
          (match op with
          | Mark l ->
              State.mark_truncated st (txid second l);
              marks.(c) <- S.add l marks.(c)
          | Low l ->
              State.update_low_bound st ~coord l;
              low.(c) <- max low.(c) l);
          let t = State.trunc_track st ~coord in
          t.State.low = low.(c)
          && t.State.n_above = S.cardinal (S.filter (fun l -> l >= low.(c)) marks.(c))
          && List.for_all
               (fun l ->
                 State.is_truncated st (txid second l) = (l < low.(c) || S.mem l marks.(c)))
               (List.init 130 Fun.id))
        ops)

let suites =
  [
    ( "core.obj_layout",
      [
        qtest header_roundtrip;
        test "with ops" header_with_ops;
        test "cas" header_cas;
        test "data roundtrip" data_roundtrip;
        qtest paged_matches_flat;
      ] );
    ("core.allocmgr", [ qtest slot_sized_to_object ]);
    ("core.ids", [ test "txid ordering" txid_ordering; test "addr map" addr_map ]);
    ( "core.config",
      [
        test "backup cms" config_backup_cms;
        test "recovery coordinator" config_recovery_coordinator_deterministic;
        test "cm must be member" config_cm_must_be_member;
      ] );
    ( "core.placement",
      [
        test "distinct domains" placement_distinct_domains;
        test "impossible" placement_impossible;
        test "balances load" placement_balances_load;
        test "capacity" placement_capacity;
        test "colocate" placement_colocate;
        test "replacements avoid survivor domains" placement_replacements_avoid_survivor_domains;
        qtest placement_qcheck;
      ] );
    ( "core.ringlog",
      [
        test "reserve/release" ringlog_reserve_release;
        test "append/retain/truncate" ringlog_append_retain_truncate;
        test "first use" ringlog_first_use;
        qtest ringlog_resident_order;
        test "resident order across resizes" ringlog_resident_order_resized;
        qtest ringlog_pending_counts;
        test "discard" ringlog_discard;
        qtest ringlog_space_qcheck;
      ] );
    ("core.wire", [ test "sizes monotone" wire_sizes_monotone ]);
    ( "core.comms",
      [
        test "answered call leaves no timer" call_answered_leaves_no_timer;
        test "unanswered call times out at its deadline" call_times_out_at_deadline;
        test "cancelled caller leaves no timer" call_cancelled_leaves_no_timer;
      ] );
    ("core.state", [ qtest trunc_model_qcheck ]);
    ( "core.evidence",
      [
        test "vote table" evidence_vote_table;
        test "decide" evidence_decide;
        qtest evidence_merge_laws;
        test "commit-backup ts beats lock ts" evidence_backup_ts_wins;
        qtest evidence_of_records_is_add_fold;
        test "add returns a snapshot" evidence_add_then_mark;
        test "writes_to" evidence_writes_to;
        qtest evidence_writes_to_partitions;
        test "credits" evidence_credits;
        test "replicate_to" evidence_replicate_to;
      ] );
  ]
