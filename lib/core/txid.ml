(* Transaction identifiers <c, m, t, l> (§5.3): the configuration in which
   the commit started, the coordinator machine, the coordinator thread, and
   a thread-local sequence number. *)

type t = { config : int; machine : int; thread : int; local : int }

let make ~config ~machine ~thread ~local = { config; machine; thread; local }

let compare a b =
  let c = Int.compare a.config b.config in
  if c <> 0 then c
  else
    let c = Int.compare a.machine b.machine in
    if c <> 0 then c
    else
      let c = Int.compare a.thread b.thread in
      if c <> 0 then c else Int.compare a.local b.local

let equal a b = compare a b = 0

let hash t = Farm_sim.Int_tbl.hash4 t.config t.machine t.thread t.local

(* Key identifying the coordinator thread, used for truncation tracking and
   for sharding recovery work across threads. *)
let coord_key t = (t.machine, t.thread)

(* The same identity packed into one int, for the per-record hot path:
   keying the truncation tables on a tuple would allocate the key and
   hash it structurally on every log record processed. Threads fit in 10
   bits ([Params.threads_per_machine] is single digits). *)
let coord_id t = (t.machine lsl 10) lor t.thread

let pp ppf t = Fmt.pf ppf "<c%d,m%d,t%d,l%d>" t.config t.machine t.thread t.local

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
