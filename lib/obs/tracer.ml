open Farm_sim

(* Causal tracing. Implementation notes, mirroring the obs spine:

   - One {!Ring} of slots (ints, and a constant name) whose storage grows
     with the slots recorded; recording a slice or an instant is ~10
     stores. Rendering is deferred to [export_json].
   - The tracer knows no protocol vocabulary: its callers name each slice
     and instant (slices after their [Obs.point]).
   - The only engine interaction is reading the clock; nothing here draws
     randomness, schedules work, or blocks, so histories are identical
     with tracing on or off, and the export is a pure function of the
     recorded slots — byte-identical across replays of one seed.
   - Timestamps are sim-time ns (ints); the export renders microseconds
     by integer division, so no float formatting can perturb bytes. *)

(* {1 Thread tracks} *)

let tid_net = 32
let tid_lease = 33
let tid_recovery = 34
let tid_log ~sender = 64 + sender

let tid_name tid =
  if tid >= 64 then Printf.sprintf "log from m%d" (tid - 64)
  else if tid = tid_net then "net"
  else if tid = tid_lease then "lease"
  else if tid = tid_recovery then "recovery"
  else Printf.sprintf "worker %d" tid

(* Perfetto sorts threads by tid when no sort index is given; the layout
   above (workers, then net/lease/recovery, then per-sender log tracks)
   is already the reading order we want. *)

(* A flow id is a positional encoding of (trace context, payload tag,
   destination) — injective for machines/threads < 64 and tags < 8, so
   the sender of a record and its remote processor derive the same id
   from fields the record already carries, and distinct records never
   collide. [+ 1] keeps 0 free as the "no flow" sentinel. *)
let flow_id ~machine ~thread ~local ~tag ~dst =
  ((((((local * 64) + machine) * 64) + thread) * 8 + tag) * 64) + dst + 1

(* Names of the flow-id tag space: record tags 0-4 (the wire's
   [payload_tag] order), then the reserved message tags. The export
   decodes a slice's tag back out of its flow id so a flow-carrying slice
   (a log append or a log record's processing) reads as the record it
   carries. *)
let tag_names =
  [| "LOCK"; "COMMIT-BACKUP"; "COMMIT-PRIMARY"; "ABORT"; "TRUNCATE"; "lock-reply"; "validate"; "?" |]

let flow_tag fid = (fid - 1) / 64 mod 8

(* {1 The ring} *)

(* A slot's tag is its label; its ints, in order: phase (0 slice /
   1 instant), start ns, duration ns (slices only), tid, arg, trace
   context (txm = -1 means none, txt, txl), incoming and outgoing flow ids
   (0 = none). *)
type t = { engine : Engine.t; trc_machine : int; mutable trc_enabled : bool; ring : string Ring.t }

let create ?(capacity = 4096) engine ~machine =
  { engine; trc_machine = machine; trc_enabled = false; ring = Ring.create ~capacity ~stride:10 "" }

let set_enabled t on = t.trc_enabled <- on
let enabled t = t.trc_enabled
let total t = Ring.total t.ring
let ring t = t.ring

let record t ~ph ~ts ~dur ~tid ~label ~arg ~txm ~txt ~txl ~fin ~fout =
  let r = t.ring in
  let h = Ring.push r label in
  Ring.set r h 0 ph;
  Ring.set r h 1 ts;
  Ring.set r h 2 dur;
  Ring.set r h 3 tid;
  Ring.set r h 4 arg;
  Ring.set r h 5 txm;
  Ring.set r h 6 txt;
  Ring.set r h 7 txl;
  Ring.set r h 8 fin;
  Ring.set r h 9 fout

let slice t ~tid ~label ~start ~arg ~txm ~txt ~txl ~flow_in ~flow_out =
  if t.trc_enabled then
    record t ~ph:0 ~ts:start ~dur:(Time.to_ns (Engine.now t.engine) - start) ~tid ~label ~arg
      ~txm ~txt ~txl ~fin:flow_in ~fout:flow_out

let instant t ~tid ~name ~arg =
  if t.trc_enabled then
    record t ~ph:1 ~ts:(Time.to_ns (Engine.now t.engine)) ~dur:0 ~tid ~label:name ~arg ~txm:(-1)
      ~txt:0 ~txl:0 ~fin:0 ~fout:0

(* {1 Offline views} *)

type view = {
  v_machine : int;
  v_tid : int;
  v_name : string;
  v_ts : int;
  v_dur : int;
  v_txm : int;
  v_txt : int;
  v_txl : int;
  v_fin : int;
  v_fout : int;
}

(* A live slot read back as (phase, arg, view). A slice carrying a flow
   is named after the record its flow id encodes; instants carry none. *)
let decode t label h =
  let get = Ring.get t.ring h in
  let fin = get 8 and fout = get 9 in
  let flow = if fout <> 0 then fout else fin in
  ( get 0,
    get 4,
    {
      v_machine = t.trc_machine;
      v_tid = get 3;
      v_name = (if flow <> 0 then label ^ " " ^ tag_names.(flow_tag flow) else label);
      v_ts = get 1;
      v_dur = get 2;
      v_txm = get 5;
      v_txt = get 6;
      v_txl = get 7;
      v_fin = fin;
      v_fout = fout;
    } )

(* Live slots of every tracer in a total deterministic order: timestamp,
   then machine, then slot age. *)
let live_entries tracers =
  List.concat_map (fun t -> List.mapi (fun age e -> (age, e)) (Ring.to_list t.ring (decode t))) tracers
  |> List.sort (fun (a1, (_, _, v1)) (a2, (_, _, v2)) ->
         if v1.v_ts <> v2.v_ts then compare v1.v_ts v2.v_ts
         else if v1.v_machine <> v2.v_machine then compare v1.v_machine v2.v_machine
         else compare a1 a2)
  |> List.map snd

let views tracers =
  List.filter_map (fun (ph, _, v) -> if ph = 0 then Some v else None) (live_entries tracers)

(* {1 Export} *)

(* Microseconds with three decimals by integer division: float formatting
   never touches the artifact, so its bytes depend only on the ints. *)
let bprint_us buf ns =
  let ns = if ns < 0 then 0 else ns in
  Printf.bprintf buf "%d.%03d" (ns / 1000) (ns mod 1000)

let bprint_common buf ~name ~ph ~ts ~pid ~tid =
  Printf.bprintf buf "{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":" name ph;
  bprint_us buf ts;
  Printf.bprintf buf ",\"pid\":%d,\"tid\":%d" pid tid

(* Render one slot into 1-3 trace events (the slice plus its flow
   endpoints, which Perfetto binds to the enclosing slice by emitting
   them at the slice's start timestamp on the same pid/tid). *)
let render_slot buf ~crit (ph, arg, v) =
  let pid = v.v_machine and tid = v.v_tid in
  if ph = 1 then begin
    bprint_common buf ~name:v.v_name ~ph:"i" ~ts:v.v_ts ~pid ~tid;
    Printf.bprintf buf ",\"s\":\"t\",\"args\":{\"arg\":%d}}" arg
  end
  else begin
    bprint_common buf ~name:v.v_name ~ph:"X" ~ts:v.v_ts ~pid ~tid;
    Printf.bprintf buf ",\"dur\":";
    bprint_us buf v.v_dur;
    Printf.bprintf buf ",\"args\":{\"arg\":%d" arg;
    if v.v_txm >= 0 then
      Printf.bprintf buf ",\"tx\":\"m%d.t%d.%d\"" v.v_txm v.v_txt v.v_txl;
    if crit then Printf.bprintf buf ",\"crit\":1";
    Printf.bprintf buf "}}";
    if v.v_fout <> 0 then begin
      Buffer.add_string buf ",\n";
      bprint_common buf ~name:"flow" ~ph:"s" ~ts:v.v_ts ~pid ~tid;
      Printf.bprintf buf ",\"cat\":\"flow\",\"id\":%d}" v.v_fout
    end;
    if v.v_fin <> 0 then begin
      Buffer.add_string buf ",\n";
      bprint_common buf ~name:"flow" ~ph:"f" ~ts:v.v_ts ~pid ~tid;
      Printf.bprintf buf ",\"cat\":\"flow\",\"bp\":\"e\",\"id\":%d}" v.v_fin
    end
  end

let export_json ?mark tracers =
  let entries = live_entries tracers in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit render =
    if !first then first := false else Buffer.add_string buf ",\n";
    render buf
  in
  (* Metadata: machines as processes, roles as named threads (only tids
     that actually carry events, in sorted order). *)
  List.iter
    (fun t ->
      let pid = t.trc_machine in
      emit (fun buf ->
          bprint_common buf ~name:"process_name" ~ph:"M" ~ts:0 ~pid ~tid:0;
          Printf.bprintf buf ",\"args\":{\"name\":\"machine %d\"}}" pid);
      List.iter
        (fun tid ->
          emit (fun buf ->
              bprint_common buf ~name:"thread_name" ~ph:"M" ~ts:0 ~pid ~tid;
              Printf.bprintf buf ",\"args\":{\"name\":\"%s\"}}" (tid_name tid)))
        (List.sort_uniq compare (Ring.to_list t.ring (fun _ h -> Ring.get t.ring h 3))))
    (List.sort (fun a b -> compare a.trc_machine b.trc_machine) tracers);
  List.iter
    (fun ((ph, _, v) as e) ->
      let crit = match mark with Some f when ph = 0 -> f v | _ -> false in
      emit (fun buf -> render_slot buf ~crit e))
    entries;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf
