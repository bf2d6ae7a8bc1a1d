(* The simulator's event core and its int-keyed building blocks, each
   checked against a plain reference: the engine against a list sorted by
   (time, seq), Int_tbl's hash against Hashtbl.hash, the histogram against
   its original float-sum implementation, and the RNG against its first
   outputs. *)

open Farm_sim
open Farm_core

let test name fn = Alcotest.test_case name `Quick fn
let qtest = QCheck_alcotest.to_alcotest

(* {1 Event order} *)

(* A schedule program: events placed in the past, at now or in the future
   (relative to when they are scheduled), which schedule further events,
   stop the engine, or start a process that sleeps, yields and schedules
   events itself. The top level interleaves schedules with [run] and
   [run ~until]. *)
type delta = Past of int | Now | Future of int
type node = { id : int; at : delta; body : body }
and body = Event of node list | Stop | Proc of step list
and step = Sleep of int | Yield | Sched of node

type cmd = Top of node | Run | Run_until of int

let rec pp_node ppf n =
  let pp_at ppf = function
    | Past d -> Fmt.pf ppf "-%d" d
    | Now -> Fmt.string ppf "0"
    | Future d -> Fmt.pf ppf "+%d" d
  in
  match n.body with
  | Event ch -> Fmt.pf ppf "e%d@%a[%a]" n.id pp_at n.at Fmt.(list ~sep:comma pp_node) ch
  | Stop -> Fmt.pf ppf "stop%d@%a" n.id pp_at n.at
  | Proc steps -> Fmt.pf ppf "p%d@%a{%a}" n.id pp_at n.at Fmt.(list ~sep:comma pp_step) steps

and pp_step ppf = function
  | Sleep d -> Fmt.pf ppf "sleep %d" d
  | Yield -> Fmt.string ppf "yield"
  | Sched n -> pp_node ppf n

let pp_cmd ppf = function
  | Top n -> pp_node ppf n
  | Run -> Fmt.string ppf "run"
  | Run_until t -> Fmt.pf ppf "run~%d" t

let gen_program =
  let open QCheck.Gen in
  let delta =
    frequency
      [
        (2, map (fun d -> Past d) (int_range 1 50));
        (3, return Now);
        (4, map (fun d -> Future d) (int_range 1 100));
        (* timer-like delays, tens of microseconds ahead *)
        (1, map (fun d -> Future d) (int_range 32_000 33_000));
      ]
  in
  let node =
    fix (fun self depth ->
        let mk body = map2 (fun id at -> { id; at; body }) (int_bound 999) delta in
        let leaf = mk (Event []) in
        if depth = 0 then frequency [ (8, leaf); (1, mk Stop) ]
        else
          let step =
            frequency
              [
                (3, map (fun d -> Sleep d) (oneof [ int_bound 60; int_range 32_000 33_000 ]));
                (2, return Yield);
                (2, map (fun n -> Sched n) (self (depth - 1)));
              ]
          in
          frequency
            [
              (2, leaf);
              (1, mk Stop);
              (4, list_size (int_bound 3) (self (depth - 1)) >>= fun ch -> mk (Event ch));
              (3, list_size (int_bound 4) step >>= fun steps -> mk (Proc steps));
            ])
  in
  let cmd =
    frequency
      [
        (4, map (fun n -> Top n) (int_bound 3 >>= node));
        (1, return Run);
        (2, map (fun t -> Run_until t) (oneof [ int_bound 400; int_bound 70_000 ]));
      ]
  in
  map (fun cmds -> cmds @ [ Run ]) (list_size (int_range 1 8) cmd)

let arb_program =
  QCheck.make gen_program ~print:(Fmt.str "%a" Fmt.(list ~sep:semi pp_cmd))

let abs_at now = function Past d -> now - d | Now -> now | Future d -> now + d

(* The reference engine: every event carries (max at now, seq) and the
   smallest pair runs next. A process step is the pair of events a wake-up
   costs: a timer at the instant, then a resume at it. *)
module Ref = struct
  type t = {
    mutable q : (int * int * (unit -> unit)) list;
    mutable now : int;
    mutable seq : int;
    mutable stopped : bool;
    mutable processed : int;
  }

  let create () = { q = []; now = 0; seq = 0; stopped = false; processed = 0 }

  let schedule t ~at fn =
    t.seq <- t.seq + 1;
    t.q <- (max at t.now, t.seq, fn) :: t.q

  let run ?until t =
    t.stopped <- false;
    let continue = ref true in
    while !continue && not t.stopped do
      match List.sort (fun (a, s, _) (b, s', _) -> compare (a, s) (b, s')) t.q with
      | [] -> continue := false
      | (at, seq, fn) :: _ -> (
          match until with
          | Some limit when at > limit ->
              t.now <- limit;
              continue := false
          | _ ->
              t.q <- List.filter (fun (_, s, _) -> s <> seq) t.q;
              t.now <- at;
              t.processed <- t.processed + 1;
              fn ())
    done;
    match until with
    | Some limit when t.now < limit && not t.stopped -> t.now <- limit
    | _ -> ()
end

(* Each run logs (node id, process step or -1, time) as things happen. *)
let run_real cmds =
  let e = Engine.create () in
  let log = ref [] in
  let rec sched n =
    Engine.schedule e ~at:(abs_at (Engine.now e) n.at) (fun () ->
        log := (n.id, -1, Engine.now e) :: !log;
        match n.body with
        | Event ch -> List.iter sched ch
        | Stop -> Engine.stop e
        | Proc steps ->
            Proc.spawn e (fun () ->
                List.iteri
                  (fun i step ->
                    (match step with
                    | Sleep d -> Proc.sleep (Time.ns d)
                    | Yield -> Proc.yield ()
                    | Sched n -> sched n);
                    log := (n.id, i, Proc.now ()) :: !log)
                  steps))
  in
  let states =
    List.map
      (fun c ->
        (match c with
        | Top n -> sched n
        | Run -> Engine.run e
        | Run_until t -> Engine.run ~until:(Time.ns t) e);
        (Engine.now e, Engine.pending e, Engine.events_processed e))
      cmds
  in
  (List.rev !log, states)

let run_ref cmds =
  let r = Ref.create () in
  let log = ref [] in
  let rec sched n =
    Ref.schedule r ~at:(abs_at r.Ref.now n.at) (fun () ->
        log := (n.id, -1, r.Ref.now) :: !log;
        match n.body with
        | Event ch -> List.iter sched ch
        | Stop -> r.Ref.stopped <- true
        | Proc steps -> Ref.schedule r ~at:r.Ref.now (fun () -> steps_from n.id 0 steps))
  and steps_from id i = function
    | [] -> ()
    | step :: rest -> (
        let next () =
          log := (id, i, r.Ref.now) :: !log;
          steps_from id (i + 1) rest
        in
        let wake_at at =
          Ref.schedule r ~at (fun () -> Ref.schedule r ~at:r.Ref.now next)
        in
        match step with
        | Sleep d -> wake_at (r.Ref.now + d)
        | Yield -> wake_at r.Ref.now
        | Sched n ->
            sched n;
            next ())
  in
  let states =
    List.map
      (fun c ->
        (match c with
        | Top n -> sched n
        | Run -> Ref.run r
        | Run_until t -> Ref.run ~until:t r);
        (r.Ref.now, List.length r.Ref.q, r.Ref.processed))
      cmds
  in
  (List.rev !log, states)

let engine_matches_reference =
  QCheck.Test.make ~name:"engine runs events in (time, seq) order" ~count:500 arb_program
    (fun cmds -> run_real cmds = run_ref cmds)

(* [run ~until] below [now] winds the clock back; events already due at the
   old instant stay queued and run, in order, once the clock reaches it. *)
let engine_rewind () =
  let e = Engine.create () in
  let log = ref [] in
  let note s () = log := (s, Engine.now e) :: !log in
  Engine.schedule e ~at:(Time.ns 50) (fun () ->
      Engine.schedule e ~at:(Time.ns 50) (note "a");
      Engine.schedule e ~at:(Time.ns 60) (note "c");
      Engine.stop e);
  Engine.schedule e ~at:(Time.ns 50) (note "z");
  Engine.run e;
  Engine.run ~until:(Time.ns 20) e;
  Alcotest.(check int) "clock wound back" 20 (Engine.now e);
  Alcotest.(check int) "nothing ran" 0 (List.length !log);
  Engine.schedule e ~at:(Time.ns 50) (note "b");
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "order" [ ("z", 50); ("a", 50); ("b", 50); ("c", 60) ] (List.rev !log)

(* Two events for one instant, one scheduled 40 us ahead and one scheduled
   just before it is due: they run in scheduling order. The second case
   needs the clock wound back between the two schedules. *)
let engine_same_instant_ties () =
  let order first_far =
    let e = Engine.create () in
    let log = ref [] in
    let note s () = log := s :: !log in
    let at = Time.ns 40_000 in
    if first_far then begin
      Engine.schedule e ~at (note "far");
      Engine.run ~until:(Time.ns 39_990) e;
      Engine.schedule e ~at (note "near")
    end
    else begin
      Engine.run ~until:(Time.ns 39_990) e;
      Engine.schedule e ~at (note "near");
      Engine.run ~until:Time.zero e;
      Engine.schedule e ~at (note "far")
    end;
    Engine.run e;
    List.rev !log
  in
  Alcotest.(check (list string)) "far scheduled first" [ "far"; "near" ] (order true);
  Alcotest.(check (list string)) "near scheduled first" [ "near"; "far" ] (order false)

(* {1 Nothing popped stays reachable} *)

(* A closure capturing a fresh block, and a weak pointer to that block. *)
let[@inline never] tracked () =
  let block = Bytes.create 64 in
  let w = Weak.create 1 in
  Weak.set w 0 (Some block);
  ((fun () -> ignore (Sys.opaque_identity block)), w)

let collected w =
  Gc.full_major ();
  Option.is_none (Weak.get w 0)

let[@inline never] heap_push_pop pop =
  let h = Heap.create () in
  let ws =
    List.init 8 (fun i ->
        let fn, w = tracked () in
        Heap.push h ~key:(i * 7 mod 5) ~seq:i fn;
        w)
  in
  for _ = 1 to 8 do
    pop h
  done;
  (* keep the heap itself alive across the collection *)
  (h, ws)

let heap_clears_popped_slots () =
  let check name pop =
    let h, ws = heap_push_pop pop in
    Alcotest.(check bool) name true (List.for_all collected ws);
    Alcotest.(check int) "emptied" 0 (Heap.length (Sys.opaque_identity h))
  in
  check "pop_value" (fun h -> (Heap.pop_value h) ());
  check "pop" (fun h -> match Heap.pop h with Some (_, fn) -> fn () | None -> ())

let[@inline never] engine_run_tracked e ~at =
  let fn, w = tracked () in
  Engine.schedule e ~at fn;
  Engine.run e;
  w

let engine_clears_run_events () =
  let e = Engine.create () in
  let w_ready = engine_run_tracked e ~at:Time.zero in
  let w_timer = engine_run_tracked e ~at:(Time.ns 10) in
  Alcotest.(check bool) "same-instant event" true (collected w_ready);
  Alcotest.(check bool) "timer event" true (collected w_timer);
  Alcotest.(check int) "engine idle" 0 (Engine.pending (Sys.opaque_identity e))

(* A cancelled timer is never run or counted, the engine no longer holds
   its callback, and a second cancel is a no-op. *)
let[@inline never] engine_cancel_tracked e ran =
  let fn, w = tracked () in
  let timer =
    Engine.timer e ~after:(Time.ns 10) (fun () ->
        ran := true;
        fn ())
  in
  Engine.cancel e timer;
  (timer, w)

let engine_cancelled_timer () =
  let e = Engine.create () in
  let ran = ref false in
  let timer, w = engine_cancel_tracked e ran in
  Alcotest.(check int) "dequeued" 0 (Engine.pending e);
  Alcotest.(check bool) "callback released" true (collected w);
  let later = ref false in
  ignore (Engine.timer e ~after:(Time.ns 20) (fun () -> later := true));
  Engine.cancel e timer;
  Engine.run e;
  Alcotest.(check bool) "never run" false !ran;
  Alcotest.(check bool) "a later timer still runs" true !later;
  Alcotest.(check int) "only the later timer counted" 1 (Engine.events_processed e);
  Alcotest.(check int) "the run ends at the later timer" 20 (Time.to_ns (Engine.now e))

(* Timers keep scheduling order with the events around them, whichever
   queue each is filed in. *)
let engine_timer_ties () =
  let e = Engine.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  Engine.schedule e ~at:(Time.ns 50) (note "a");
  ignore (Engine.timer e ~after:(Time.ns 50) (note "b"));
  Engine.schedule e ~at:(Time.ns 50) (note "c");
  Engine.cancel e (Engine.timer e ~after:(Time.ns 50) (note "dropped"));
  ignore (Engine.timer e ~after:(Time.ns 40) (note "first"));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "first"; "a"; "b"; "c" ] (List.rev !log)

(* {1 Int_tbl hashing} *)

let int_cases =
  [ 0; 1; -1; 2; 42; -42; max_int; min_int; max_int - 1; min_int + 1; 1 lsl 31; -(1 lsl 31);
    (1 lsl 31) - 1; -(1 lsl 31) - 1; 1 lsl 32; -(1 lsl 32); 1 lsl 61; -(1 lsl 61) ]

let int_tbl_hash_fixed () =
  List.iter
    (fun x -> Alcotest.(check int) (string_of_int x) (Hashtbl.hash x) (Int_tbl.hash x))
    int_cases

let int_tbl_hash_random =
  QCheck.Test.make ~name:"Int_tbl.hash = Hashtbl.hash" ~count:2000 QCheck.int (fun x ->
      Int_tbl.hash x = Hashtbl.hash x)

let txid_hash_random =
  QCheck.Test.make ~name:"Txid.hash = Hashtbl.hash of the 4-tuple" ~count:1000
    QCheck.(quad int small_signed_int small_nat int)
    (fun (config, machine, thread, local) ->
      Txid.hash (Txid.make ~config ~machine ~thread ~local)
      = Hashtbl.hash (config, machine, thread, local))

(* Same operations, same contents and iteration order as a generic table,
   through enough inserts to resize it several times. *)
type tbl_op = Add of int | Replace of int | Remove of int | Filter of int | Reset

let gen_tbl_ops =
  let open QCheck.Gen in
  let key = int_range (-3000) 3000 in
  list_size (int_bound 1500)
    (frequency
       [
         (3, map (fun k -> Add k) key);
         (6, map (fun k -> Replace k) key);
         (3, map (fun k -> Remove k) key);
         (1, map (fun m -> Filter m) (int_range 2 7));
         (1, return Reset);
       ])

let int_tbl_matches_hashtbl =
  QCheck.Test.make ~name:"Int_tbl behaves and iterates like Hashtbl" ~count:200
    (QCheck.make gen_tbl_ops) (fun ops ->
      let a = Hashtbl.create 16 and b = Int_tbl.create 16 in
      let keep m k v = if (k + v) mod m = 0 then None else Some (v + 1) in
      List.iteri
        (fun i op ->
          match op with
          | Add k ->
              Hashtbl.add a k i;
              Int_tbl.add b k i
          | Replace k ->
              Hashtbl.replace a k i;
              Int_tbl.replace b k i
          | Remove k ->
              Hashtbl.remove a k;
              Int_tbl.remove b k
          | Filter m ->
              Hashtbl.filter_map_inplace (keep m) a;
              Int_tbl.filter_map_inplace (keep m) b
          | Reset ->
              Hashtbl.reset a;
              Int_tbl.reset b)
        ops;
      let listed_a = ref [] and listed_b = ref [] in
      Hashtbl.iter (fun k v -> listed_a := (k, v) :: !listed_a) a;
      Int_tbl.iter (fun k v -> listed_b := (k, v) :: !listed_b) b;
      Hashtbl.length a = Int_tbl.length b
      && !listed_a = !listed_b
      && Hashtbl.fold (fun k v acc -> (k, v) :: acc) a []
         = Int_tbl.fold (fun k v acc -> (k, v) :: acc) b []
      && List.for_all
           (fun k ->
             Hashtbl.find_opt a k = Int_tbl.find_opt b k
             && Hashtbl.mem a k = Int_tbl.mem b k
             && (match Hashtbl.find a k with v -> Some v | exception Not_found -> None)
                = match Int_tbl.find b k with v -> Some v | exception Not_found -> None)
           (List.init 200 (fun k -> (k * 31) - 3000)))

(* The specialised txid table against the functor table it replaced: same
   contents, same iteration order, through several resizes. Each key's
   fields are the mixed-radix digits of an int, so many pairs of keys
   differ in one field only: the equality must compare all four. *)
module Generic_txid_tbl = Hashtbl.Make (Txid)

let txid_tbl_matches_hashtbl =
  let txid_of k =
    Txid.make ~config:(k mod 2) ~machine:(k / 2 mod 5) ~thread:(k / 10 mod 3) ~local:(k / 30)
  in
  QCheck.Test.make ~name:"Txid.Tbl behaves and iterates like Hashtbl.Make" ~count:200
    QCheck.(list_of_size (Gen.int_bound 1500) (pair bool (int_bound 800)))
    (fun ops ->
      let a = Generic_txid_tbl.create 16 and b = Txid.Tbl.create 16 in
      List.iteri
        (fun i (insert, k) ->
          if insert then begin
            Generic_txid_tbl.replace a (txid_of k) i;
            Txid.Tbl.replace b (txid_of k) i
          end
          else begin
            Generic_txid_tbl.remove a (txid_of k);
            Txid.Tbl.remove b (txid_of k)
          end)
        ops;
      let listed_a = ref [] and listed_b = ref [] in
      Generic_txid_tbl.iter (fun k v -> listed_a := (k, v) :: !listed_a) a;
      Txid.Tbl.iter (fun k v -> listed_b := (k, v) :: !listed_b) b;
      Generic_txid_tbl.length a = Txid.Tbl.length b
      && !listed_a = !listed_b
      && Generic_txid_tbl.fold (fun k v acc -> (k, v) :: acc) a []
         = Txid.Tbl.fold (fun k v acc -> (k, v) :: acc) b []
      && List.for_all
           (fun k ->
             let t = txid_of k in
             Generic_txid_tbl.find_opt a t = Txid.Tbl.find_opt b t
             && Generic_txid_tbl.mem a t = Txid.Tbl.mem b t)
           (List.init 801 Fun.id))

(* {1 Histogram against the float-sum original} *)

module Old_hist = struct
  let sub_bits = 5
  let sub = 1 lsl sub_bits
  let nbuckets = 2048

  type t = {
    buckets : int array;
    mutable count : int;
    mutable sum : float;
    mutable min_v : int;
    mutable max_v : int;
  }

  let create () =
    { buckets = Array.make nbuckets 0; count = 0; sum = 0.; min_v = max_int; max_v = 0 }

  let msb v =
    let r = ref 0 in
    let v = ref v in
    while !v > 1 do
      incr r;
      v := !v lsr 1
    done;
    !r

  let index v =
    if v < sub then v
    else
      let k = msb v in
      let base = (k - sub_bits + 1) * sub in
      let off = (v lsr (k - sub_bits)) land (sub - 1) in
      let i = base + off in
      if i >= nbuckets then nbuckets - 1 else i

  let bucket_value i =
    if i < sub then i
    else
      let k = (i / sub) + sub_bits - 1 in
      let off = i land (sub - 1) in
      ((1 lsl k) + ((off + 1) lsl (k - sub_bits))) - 1

  let record t v =
    let v = if v < 0 then 0 else v in
    t.buckets.(index v) <- t.buckets.(index v) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum +. float_of_int v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v

  let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count

  let percentile t p =
    if t.count = 0 then 0
    else begin
      let target = int_of_float (ceil (p /. 100. *. float_of_int t.count)) in
      let target = if target < 1 then 1 else target in
      let acc = ref 0 in
      let result = ref t.max_v in
      (try
         for i = 0 to nbuckets - 1 do
           acc := !acc + t.buckets.(i);
           if !acc >= target then begin
             result := bucket_value i;
             raise Exit
           end
         done
       with Exit -> ());
      Stdlib.min !result t.max_v
    end

  let merge ~into src =
    Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) src.buckets;
    into.count <- into.count + src.count;
    into.sum <- into.sum +. src.sum;
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v
end

(* samples spread over every octave below 2^44: at most 300 of them sum
   below 2^53, where the float and the int sum agree exactly *)
let gen_sample =
  QCheck.Gen.(int_range 0 44 >>= fun bits -> map (fun x -> x land ((1 lsl bits) - 1)) (int_bound max_int))

let arb_samples = QCheck.make ~print:QCheck.Print.(list int) QCheck.Gen.(list_size (int_bound 300) gen_sample)

let hist_index_matches =
  QCheck.Test.make ~name:"Hist.index matches the original" ~count:2000
    (QCheck.make ~print:string_of_int QCheck.Gen.(oneof [ gen_sample; int_bound max_int ]))
    (fun v -> Stats.Hist.index v = Old_hist.index v)

let same_summary (h : Stats.Hist.t) (o : Old_hist.t) =
  Stats.Hist.count h = o.Old_hist.count
  && Stats.Hist.mean h = Old_hist.mean o
  && Stats.Hist.min_value h = (if o.Old_hist.count = 0 then 0 else o.Old_hist.min_v)
  && Stats.Hist.max_value h = o.Old_hist.max_v
  && List.for_all
       (fun p -> Stats.Hist.percentile h p = Old_hist.percentile o p)
       [ 0.; 1.; 10.; 50.; 90.; 99.; 99.9; 100. ]

let hist_matches =
  QCheck.Test.make ~name:"Hist percentile, mean and merge match the original" ~count:300
    (QCheck.pair arb_samples arb_samples) (fun (xs, ys) ->
      let h1 = Stats.Hist.create () and h2 = Stats.Hist.create () in
      let o1 = Old_hist.create () and o2 = Old_hist.create () in
      List.iter (fun v -> Stats.Hist.record h1 v; Old_hist.record o1 v) xs;
      List.iter (fun v -> Stats.Hist.record h2 v; Old_hist.record o2 v) ys;
      let single = same_summary h1 o1 && same_summary h2 o2 in
      Stats.Hist.merge ~into:h1 h2;
      Old_hist.merge ~into:o1 o2;
      single && same_summary h1 o1)

(* {1 RNG streams} *)

let rng_golden () =
  let draws r n = List.init n (fun _ -> Rng.next_int64 r) in
  let r = Rng.create 42 in
  Alcotest.(check (list int64))
    "create 42"
    [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L; -1389169964527427423L ]
    (draws r 4);
  let s = Rng.split r in
  Alcotest.(check (list int64))
    "split"
    [ 9080389158723879638L; -1566126915629287799L; -4331631702941957799L; 7779855664452631565L ]
    (draws s 4);
  Alcotest.(check (list int64))
    "parent after split" [ -4247557243643801032L; -5178765164775350862L ] (draws r 2);
  let r = Rng.create 7 in
  Alcotest.(check int) "bits" 3230838767707118998 (Rng.bits r);
  Alcotest.(check int) "int" 668 (Rng.int r 1000);
  Alcotest.(check (float 0.)) "float" 0x1.ade3a6932a58fp-1 (Rng.float r);
  Alcotest.(check bool) "bool" false (Rng.bool r)

let suites =
  [
    ( "sim.core",
      [
        qtest engine_matches_reference;
        test "run ~until below now" engine_rewind;
        test "same instant across queues" engine_same_instant_ties;
        test "heap clears popped slots" heap_clears_popped_slots;
        test "engine drops run events" engine_clears_run_events;
        test "cancelled timer" engine_cancelled_timer;
        test "timers keep scheduling order" engine_timer_ties;
        test "int hash on edge ints" int_tbl_hash_fixed;
        qtest int_tbl_hash_random;
        qtest txid_hash_random;
        qtest int_tbl_matches_hashtbl;
        qtest txid_tbl_matches_hashtbl;
        qtest hist_index_matches;
        qtest hist_matches;
        test "rng golden outputs" rng_golden;
      ] );
  ]
