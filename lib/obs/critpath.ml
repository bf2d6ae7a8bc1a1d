(* Critical-path reconstruction. See the interface; the join works on
   three facts the spine already guarantees:

   - every span slice of a transaction carries its (txm, txt, txl) trace
     context, on the coordinator and at remote log processors alike;
   - a log-append slice's flow_out equals the remote log-process slice's
     flow_in (positional flow ids), so "the coordinator waited on this
     remote work" is a set-membership test, not a heuristic;
   - blame exemplars carry the span's exact category partition, so the
     path header reconciles to the ns with the online accounting. *)

type hop = {
  h_machine : int;
  h_tid : int;
  h_name : string;
  h_ts : int;
  h_dur : int;
  h_crit : bool;
}

type path = {
  p_txm : int;
  p_txt : int;
  p_txl : int;
  p_start : int;
  p_total : int;
  p_blame : (string * int) list;
  p_hops : hop list;
}

let blame_of_exemplar (ex : Obs.exemplar) =
  List.filter_map
    (fun b ->
      let ns = ex.Obs.ex_blame.(Obs.blame_index b) in
      if ns = 0 then None else Some (Obs.blame_name b, ns))
    Obs.all_blames

(* The coordinator spine: a slice on the coordinator machine, on the
   coordinator thread's worker track, tagged with the tx. *)
let on_spine ~txm ~txt (v : Tracer.view) = v.Tracer.v_machine = txm && v.Tracer.v_tid = txt

let path_of_exemplar views (ex : Obs.exemplar) =
  let txm = ex.Obs.ex_txm and txt = ex.Obs.ex_txt and txl = ex.Obs.ex_txl in
  let mine =
    List.filter
      (fun (v : Tracer.view) ->
        v.Tracer.v_txm = txm && v.Tracer.v_txt = txt && v.Tracer.v_txl = txl)
      views
  in
  (* flows the coordinator started: their remote consumers are waited-on *)
  let fouts =
    List.filter_map
      (fun (v : Tracer.view) ->
        if on_spine ~txm ~txt v && v.Tracer.v_fout <> 0 then Some v.Tracer.v_fout
        else None)
      mine
  in
  let hops =
    List.map
      (fun (v : Tracer.view) ->
        let crit =
          on_spine ~txm ~txt v
          || (v.Tracer.v_fin <> 0 && List.mem v.Tracer.v_fin fouts)
        in
        {
          h_machine = v.Tracer.v_machine;
          h_tid = v.Tracer.v_tid;
          h_name = v.Tracer.v_name;
          h_ts = v.Tracer.v_ts;
          h_dur = v.Tracer.v_dur;
          h_crit = crit;
        })
      mine
  in
  let hops =
    List.sort
      (fun a b ->
        if a.h_ts <> b.h_ts then compare a.h_ts b.h_ts
        else if a.h_machine <> b.h_machine then compare a.h_machine b.h_machine
        else compare a.h_tid b.h_tid)
      hops
  in
  {
    p_txm = txm;
    p_txt = txt;
    p_txl = txl;
    p_start = ex.Obs.ex_start;
    p_total = ex.Obs.ex_total;
    p_blame = blame_of_exemplar ex;
    p_hops = hops;
  }

let paths ~tracers ~exemplars ~k =
  let ordered =
    List.sort
      (fun (a : Obs.exemplar) (b : Obs.exemplar) ->
        if a.Obs.ex_total <> b.Obs.ex_total then compare b.Obs.ex_total a.Obs.ex_total
        else
          compare
            (a.Obs.ex_txm, a.Obs.ex_txt, a.Obs.ex_txl)
            (b.Obs.ex_txm, b.Obs.ex_txt, b.Obs.ex_txl))
      exemplars
  in
  let top = List.filteri (fun i _ -> i < k) ordered in
  let views = Tracer.views tracers in
  List.map (path_of_exemplar views) top

let mark paths (v : Tracer.view) =
  List.exists
    (fun p ->
      v.Tracer.v_txm = p.p_txm && v.Tracer.v_txt = p.p_txt
      && v.Tracer.v_txl = p.p_txl
      && List.exists
           (fun h ->
             h.h_crit && h.h_machine = v.Tracer.v_machine
             && h.h_tid = v.Tracer.v_tid && h.h_ts = v.Tracer.v_ts
             && h.h_dur = v.Tracer.v_dur)
           p.p_hops)
    paths

let us ns = Printf.sprintf "%d.%03d" (ns / 1000) (abs ns mod 1000)

let pp_path ppf p =
  Fmt.pf ppf "tx m%d.t%d.%d  total %s us  blame:" p.p_txm p.p_txt p.p_txl
    (us p.p_total);
  List.iter (fun (name, ns) -> Fmt.pf ppf " %s=%s" name (us ns)) p.p_blame;
  Fmt.pf ppf "@.";
  List.iter
    (fun h ->
      Fmt.pf ppf "  %c +%10s us %10s us  m%-3d %-12s %s@."
        (if h.h_crit then '*' else ' ')
        (us (h.h_ts - p.p_start))
        (us h.h_dur) h.h_machine
        (Tracer.tid_name h.h_tid) h.h_name)
    p.p_hops
