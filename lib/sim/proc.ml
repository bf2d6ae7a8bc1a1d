exception Cancelled

module Ctx = struct
  type t = { mutable cancelled : bool }

  let create () = { cancelled = false }
  let cancel t = t.cancelled <- true
  let is_cancelled t = t.cancelled
end

type env = { engine : Engine.t; ctx : Ctx.t }

type _ Effect.t +=
  | Suspend : ((('a, exn) result -> unit) -> unit) -> 'a Effect.t
  | Wait_until : Time.t -> unit Effect.t

(* The process running right now on this domain, or [None] between
   resumptions. Each resumption sets it and restores the previous value
   when the process parks or ends, so [now], [engine] and
   [check_cancelled] are a slot read instead of an effect. It is the one
   piece of state in [lib/] that outlives a cluster; being domain-local,
   two clusters on two domains never see each other's value (DESIGN.md,
   "The domain-parallel harness"). The key holds a mutable cell, so a
   resumption costs one key lookup and two field writes. *)
type slot = { mutable running : env option }

let current : slot Domain.DLS.key = Domain.DLS.new_key (fun () -> { running = None })

(* Resume [k] with [res] as the process [self], the slot set to [self]
   while it runs. *)
let enter self ctx k res =
  let slot = Domain.DLS.get current in
  let prev = slot.running in
  slot.running <- self;
  match
    if Ctx.is_cancelled ctx then Effect.Deep.discontinue k Cancelled
    else
      match res with Ok v -> Effect.Deep.continue k v | Error e -> Effect.Deep.discontinue k e
  with
  | () -> slot.running <- prev
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      slot.running <- prev;
      Printexc.raise_with_backtrace e bt

let spawn ?ctx engine fn =
  let ctx = match ctx with Some c -> c | None -> Ctx.create () in
  let self = Some { engine; ctx } in
  (* A [Wait_until] parks the process, and a process parks at most once at
     a time, so its two events reuse closures made here, once per process:
     a timer at the instant ([fire]), then the resume at that same instant,
     like any other wake-up ([wake]). *)
  let parked = ref None and wait_at = ref Time.zero in
  let wake () =
    match !parked with
    | Some k ->
        parked := None;
        enter self ctx k (Ok ())
    | None -> ()
  in
  let fire () = Engine.schedule engine ~at:(Engine.now engine) wake in
  let on_wait =
    Some
      (fun k ->
        parked := Some k;
        Engine.schedule engine ~at:!wait_at fire)
  in
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc = (fun () -> ());
      exnc =
        (fun e ->
          match e with
          | Cancelled -> ()
          | e ->
              let bt = Printexc.get_raw_backtrace () in
              Printexc.raise_with_backtrace e bt);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Wait_until at ->
              wait_at := at;
              on_wait
          | Suspend register ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  let resumed = ref false in
                  register (fun res ->
                      if not !resumed then begin
                        resumed := true;
                        Engine.schedule engine ~at:(Engine.now engine) (fun () ->
                            enter self ctx k res)
                      end))
          | _ -> None);
    }
  in
  let run () =
    if not (Ctx.is_cancelled ctx) then begin
      let slot = Domain.DLS.get current in
      let prev = slot.running in
      slot.running <- self;
      match Effect.Deep.match_with fn () handler with
      | () -> slot.running <- prev
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          slot.running <- prev;
          Printexc.raise_with_backtrace e bt
    end
  in
  Engine.schedule engine ~at:(Engine.now engine) run

let env () =
  match (Domain.DLS.get current).running with
  | Some env -> env
  | None -> invalid_arg "Proc: not inside a process"

let engine () = (env ()).engine
let self_ctx () = (env ()).ctx
let now () = Engine.now (engine ())

let suspend register = Effect.perform (Suspend register)

let sleep_until at = Effect.perform (Wait_until at)

let sleep d = sleep_until (Time.add (now ()) d)

let yield () = sleep Time.zero

let check_cancelled () = if Ctx.is_cancelled (self_ctx ()) then raise Cancelled
