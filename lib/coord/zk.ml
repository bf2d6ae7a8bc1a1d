open Farm_sim

type 'v replica = { index : int; mutable alive : bool; mutable seq : int; mutable value : 'v option }

type 'v t = {
  engine : Engine.t;
  rng : Rng.t;
  replicas : 'v replica array;
}

type error = [ `No_quorum | `Conflict of int ]

let create engine ~rng ~replicas:n =
  if n < 1 then invalid_arg "Zk.create: need at least one replica";
  {
    engine;
    rng;
    replicas = Array.init n (fun index -> { index; alive = true; seq = 0; value = None });
  }

let alive_replicas t =
  Array.fold_left (fun acc r -> if r.alive then acc + 1 else acc) 0 t.replicas

let has_quorum t = alive_replicas t * 2 > Array.length t.replicas

let kill_replica t i = t.replicas.(i).alive <- false
let revive_replica t i = t.replicas.(i).alive <- true

(* Install an initial value without the simulated round trip; used by the
   cluster harness at bootstrap, before the engine runs. *)
let bootstrap t value =
  Array.iter
    (fun r ->
      r.seq <- 1;
      r.value <- Some value)
    t.replicas;
  1

(* Simulated round-trip to the ensemble: a couple of fabric RTTs plus
   quorum-commit work, with small jitter. *)
let op_latency = Time.us 300

let round_trip t =
  Proc.sleep (Time.add op_latency (Time.ns (Rng.int t.rng 100_000)))

(* Quorum state: the highest sequence number among a majority. Because the
   simulator serializes each operation's apply instant, writes reach all
   alive replicas synchronously, so any alive replica holds the latest
   state; we still read via the maximum to stay honest about semantics. *)
let current t =
  Array.fold_left
    (fun acc r ->
      if not r.alive then acc
      else
        match (acc, r.value) with
        | Some (seq, _), Some v when r.seq > seq -> Some (r.seq, v)
        | None, Some v -> Some (r.seq, v)
        | acc, _ -> acc)
    None t.replicas

(* Synchronous (no simulated round trip) access for the cluster harness:
   booting machines after a full power failure happens outside any machine
   process. *)
let bootstrap_read t = if has_quorum t then current t else None

let bootstrap_cas t ~expected_seq value =
  match bootstrap_read t with
  | Some (seq, _) when seq <> expected_seq -> Error (`Conflict seq)
  | None when expected_seq <> 0 -> Error `No_quorum
  | _ ->
      let seq' = expected_seq + 1 in
      Array.iter
        (fun r ->
          if r.alive then begin
            r.seq <- seq';
            r.value <- Some value
          end)
        t.replicas;
      Ok seq'

let read t : (int * 'v) option =
  round_trip t;
  if not (has_quorum t) then None else current t

(* Znode-style atomic compare-and-swap keyed on the sequence number: only
   one concurrent proposer can move seq -> seq+1 (vertical Paxos's
   configuration-change step). *)
let compare_and_swap t ~expected_seq value : (int, error) result =
  round_trip t;
  if not (has_quorum t) then Error `No_quorum
  else begin
    let seq = match current t with None -> 0 | Some (s, _) -> s in
    if seq <> expected_seq then Error (`Conflict seq)
    else begin
      let seq' = seq + 1 in
      Array.iter
        (fun r ->
          if r.alive then begin
            r.seq <- seq';
            r.value <- Some value
          end)
        t.replicas;
      Ok seq'
    end
  end
