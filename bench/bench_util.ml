open Farm_sim
open Farm_harness

(* Shared output helpers for the figure-regeneration harness. *)

let header fig paper =
  Fmt.pr "@.=== %s ===@." fig;
  Fmt.pr "paper: %s@.@." paper

(* {1 Sharded sweeps}

   Multi-config sweeps (load points, ablation settings, cluster sizes)
   build a fresh cluster per config, so configs are independent worlds and
   can run on worker domains. Each config renders its own output block
   off-screen; blocks print in config order from the calling domain, so a
   sharded sweep's output is byte-identical to the sequential one. *)

(* Worker-domain count for sharded sweeps. Set once at startup by
   bench/main.ml's --jobs, before any sweep spawns a domain; read-only
   thereafter. *)
let jobs = ref (Domain_pool.default_jobs ())

(* Global flags (set by bench/main.ml): run a bench's short CI sizes only,
   and/or compare against a checked-in baseline JSON ({!Farm_harness.Gate})
   instead of writing a fresh one. *)
let smoke = ref false
let check_baseline : string option ref = ref None

(* Run [f] over [configs] on the domain pool; results come back in config
   order, and an exception from a config re-raises in config order, as the
   sequential loop's would have. *)
let shard_map f configs =
  Domain_pool.map ~jobs:!jobs f (Array.of_list configs)
  |> Array.to_list
  |> List.map (function Ok v -> v | Error e -> raise e)

(* Shard a sweep whose per-config result is a rendered output block. *)
let shard_print f configs = List.iter print_string (shard_map f configs)

let bar ?(scale = 1.0) v =
  let n = int_of_float (float_of_int v *. scale) in
  String.make (min 60 (max 0 n)) '#'

(* Print a 1 ms-binned series aggregated into [step]-ms rows. *)
let print_timeline ?(step = 5) ~from_ms ~to_ms ~bins ~label () =
  Fmt.pr "%s (tx per %d ms):@." label step;
  let maxv = ref 1 in
  let rows = ref [] in
  let i = ref from_ms in
  while !i < to_ms do
    let s = ref 0 in
    for j = !i to min (to_ms - 1) (!i + step - 1) do
      if j >= 0 && j < Array.length bins then s := !s + bins.(j)
    done;
    rows := (!i, !s) :: !rows;
    if !s > !maxv then maxv := !s;
    i := !i + step
  done;
  List.iter
    (fun (t, v) ->
      Fmt.pr "  t=%4dms %6d %s@." t v (bar ~scale:(55.0 /. float_of_int !maxv) v))
    (List.rev !rows)

(* Latency digest of one histogram, all in microseconds. *)
type digest = {
  count : int;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  max : float;
  mean : float;
}

let digest_of (h : Stats.Hist.t) =
  let pct p = float_of_int (Stats.Hist.percentile h p) /. 1e3 in
  {
    count = Stats.Hist.count h;
    p50 = pct 50.;
    p90 = pct 90.;
    p99 = pct 99.;
    p999 = pct 99.9;
    max = float_of_int (Stats.Hist.max_value h) /. 1e3;
    mean = Stats.Hist.mean h /. 1e3;
  }

let print_latency name (h : Stats.Hist.t) =
  Fmt.pr "  %-22s median %8.1f us   99th %8.1f us   mean %8.1f us  (n=%d)@." name
    (float_of_int (Stats.Hist.percentile h 50.) /. 1e3)
    (float_of_int (Stats.Hist.percentile h 99.) /. 1e3)
    (Stats.Hist.mean h /. 1e3)
    (Stats.Hist.count h)

let ms_of t = int_of_float (Time.to_ms_float t)

(* "cat 42%  cat 30% ..." — categories by share, largest first, of one
   blame total list; sub-1% categories folded away. *)
let pct_line blame =
  let tot = List.fold_left (fun acc (_, v) -> acc + v) 0 blame in
  if tot = 0 then "n/a"
  else
    List.filter_map
      (fun (name, v) ->
        let pct = 100 * v / tot in
        if pct < 1 then None else Some (Printf.sprintf "%s %d%%" name pct))
      (List.stable_sort (fun (_, a) (_, b) -> compare b a) blame)
    |> String.concat "  "

(* {1 JSON reports} — every BENCH_*.json is a [Json.t] built from these. *)

let int n = Json.Num (float_of_int n)

(* [x] rounded to [digits] decimals, the precision the report keeps. *)
let fixed digits x = Json.Num (float_of_string (Printf.sprintf "%.*f" digits x))

(* Name/value pairs as an object, in list order. *)
let obj_of f kvs = Json.Obj (List.map (fun (k, v) -> (k, f v)) kvs)

let write_json file doc =
  let oc = open_out file in
  output_string oc (Json.to_string doc ^ "\n");
  close_out oc;
  Fmt.pr "wrote %s@." file
