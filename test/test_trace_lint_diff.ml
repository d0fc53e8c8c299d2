(* Differential tests for the runtime trace auditor: the dense-ledger
   [Lintkit.Trace_lint.check] against the Hashtbl reference kept in
   [Trace_lint_reference], on real engine traces and on mutated event
   lists.  Both must report the same violations, with the same strings,
   in the same order. *)

open Lintkit

let render vs = List.map (Format.asprintf "%a" Trace_lint.pp_violation) vs

(* Every combination of the switches, with decision quorums below, at
   and above what a run can reach, and processor counts that put some
   real pids out of range. *)
let configs ~n ~t =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun windowed ->
          List.concat_map
            (fun fifo ->
              List.map
                (fun decision_quorum ->
                  { Trace_lint.n; t; windowed; fifo; decision_quorum })
                [ None; Some (n - t); Some (n + 1) ])
            [ true; false ])
        [ true; false ])
    [ n; n - 1 ]

let agrees ~n ~t events =
  List.for_all
    (fun config ->
      let fast = render (Trace_lint.check config events) in
      let reference = render (Trace_lint_reference.check config events) in
      List.equal String.equal fast reference)
    (configs ~n ~t)

(* ------------------------------------------------------------------ *)
(* Real engine traces.                                                 *)

let pick rng l = List.nth l (Prng.Stream.int_below rng (List.length l))

(* Drops and crashes between windows or steps. *)
let disturb rng config ~n =
  let ids = Dsim.Mailbox.pending_ids (Dsim.Engine.mailbox config) in
  if ids <> [] && Prng.Stream.bernoulli rng 0.3 then
    Dsim.Engine.apply config (Dsim.Step.Drop (pick rng ids));
  if Prng.Stream.bernoulli rng 0.05 then
    Dsim.Engine.apply config (Dsim.Step.Crash (Prng.Stream.int_below rng n))

(* Rewrites fresh Ben-Or envelopes in place, the way [--corrupt] does. *)
let tamper rng config ~from_id ~til_id =
  for id = from_id to til_id - 1 do
    if Prng.Stream.bernoulli rng 0.1
       && Dsim.Mailbox.mem (Dsim.Engine.mailbox config) id
    then
      Dsim.Engine.apply config
        (Dsim.Step.Corrupt
           (id, Protocols.Ben_or.Report { round = 0; value = Prng.Stream.bool rng }))
  done

let windowed_events rng ~n ~t =
  let config =
    Dsim.Engine.init ~protocol:(Protocols.Ben_or.protocol ()) ~n ~fault_bound:t
      ~inputs:(Array.init n (fun _ -> Prng.Stream.bool rng))
      ~seed:(Prng.Stream.int_below rng 1000) ~record_events:true ()
  in
  let pool = List.init (n + 1) (fun i -> i - 1) in
  for _w = 1 to 2 + Prng.Stream.int_below rng 8 do
    let receive_sets =
      Array.init n (fun _ -> List.filter (fun _ -> Prng.Stream.bernoulli rng 0.8) pool)
    in
    (* Sometimes one reset too many, so the per-window budget trips. *)
    let resets =
      List.filter (fun _ -> Prng.Stream.bernoulli rng 0.3) (List.init (t + 2) Fun.id)
    in
    let window = Dsim.Window.make ~receive_sets ~resets in
    Dsim.Engine.apply_window config ~drop_undelivered:(Prng.Stream.bool rng)
      ~tamper:(tamper rng config) window;
    disturb rng config ~n
  done;
  Dsim.Trace.events (Dsim.Engine.trace config)

let stepwise_events rng ~n ~t =
  let config =
    Dsim.Engine.init ~protocol:(Protocols.Bracha.protocol ()) ~n ~fault_bound:t
      ~inputs:(Array.init n (fun _ -> Prng.Stream.bool rng))
      ~seed:(Prng.Stream.int_below rng 1000) ~record_events:true ()
  in
  for _ = 1 to 150 + Prng.Stream.int_below rng 150 do
    let ids = Dsim.Mailbox.pending_ids (Dsim.Engine.mailbox config) in
    let p = Prng.Stream.int_below rng n in
    (* Deliveries in random id order break FIFO on some channels. *)
    match Prng.Stream.int_below rng 10 with
    | 0 | 1 | 2 -> Dsim.Engine.apply config (Dsim.Step.Send p)
    | 3 when Prng.Stream.bernoulli rng 0.2 -> Dsim.Engine.apply config (Dsim.Step.Reset p)
    | _ when ids <> [] -> Dsim.Engine.apply config (Dsim.Step.Deliver (pick rng ids))
    | _ -> disturb rng config ~n
  done;
  Dsim.Trace.events (Dsim.Engine.trace config)

let shape rng =
  let n = 4 + Prng.Stream.int_below rng 4 in
  (n, (n - 1) / 3)

let prop_engine_traces =
  QCheck.Test.make ~count:60 ~name:"dense auditor = reference on engine traces"
    QCheck.small_nat (fun seed ->
      let rng = Prng.Stream.root ((seed * 7919) + 11) in
      let n, t = shape rng in
      agrees ~n ~t (windowed_events rng ~n ~t) && agrees ~n ~t (stepwise_events rng ~n ~t))

(* [audit] reads the window switch off the trace's counter; the
   reference derives it from the event list. *)
let prop_audit_matches_reference =
  QCheck.Test.make ~count:30 ~name:"audit = reference check on engine runs"
    QCheck.small_nat (fun seed ->
      let rng = Prng.Stream.root ((seed * 104_729) + 5) in
      let n, t = shape rng in
      let config =
        Dsim.Engine.init ~protocol:(Protocols.Ben_or.protocol ()) ~n ~fault_bound:t
          ~inputs:(Array.init n (fun _ -> Prng.Stream.bool rng))
          ~seed ~record_events:true ()
      in
      let windowed = Prng.Stream.bool rng in
      for _ = 1 to 6 do
        if windowed then Dsim.Engine.apply_window config (Dsim.Window.uniform ~n ())
        else
          match Dsim.Mailbox.pending_ids (Dsim.Engine.mailbox config) with
          | [] -> Dsim.Engine.apply config (Dsim.Step.Send (Prng.Stream.int_below rng n))
          | ids -> Dsim.Engine.apply config (Dsim.Step.Deliver (pick rng ids))
      done;
      let events = Dsim.Trace.events (Dsim.Engine.trace config) in
      let reference =
        Trace_lint_reference.check
          {
            Trace_lint.n;
            t;
            windowed =
              List.exists (function Dsim.Trace.Window_closed _ -> true | _ -> false) events;
            fifo = true;
            decision_quorum = Some (n - t);
          }
          events
      in
      List.equal String.equal (render reference)
        (render (Trace_lint.audit ~decision_quorum:(n - t) config)))

(* ------------------------------------------------------------------ *)
(* Mutated event lists.                                                *)

let odd_ids count = [ -1; -7; count; count + 3; max_int; min_int ]

(* A value that is sometimes far out of range: negative, at or past n,
   or one of the extremes. *)
let wild rng ~n ~count =
  match Prng.Stream.int_below rng 4 with
  | 0 -> Prng.Stream.int_below rng (max n 1)
  | 1 -> pick rng [ -1; n; n + 2 ]
  | 2 -> pick rng (odd_ids count)
  | _ -> Prng.Stream.int_below rng (count + 2)

let mutate_event rng ~n ~count (event : Dsim.Trace.event) : Dsim.Trace.event =
  let w () = wild rng ~n ~count in
  match event with
  | Sent { src; dst; msg_id; depth } -> (
      match Prng.Stream.int_below rng 4 with
      | 0 -> Sent { src = w (); dst; msg_id; depth }
      | 1 -> Sent { src; dst = w (); msg_id; depth }
      | 2 -> Sent { src; dst; msg_id = w (); depth }
      | _ -> Sent { src; dst; msg_id; depth = depth + 1 })
  | Delivered { src; dst; msg_id; depth } -> (
      match Prng.Stream.int_below rng 4 with
      | 0 -> Delivered { src = w (); dst; msg_id; depth }
      | 1 -> Delivered { src; dst = w (); msg_id; depth }
      | 2 -> Delivered { src; dst; msg_id = w (); depth }
      | _ -> Delivered { src; dst; msg_id; depth = depth - 1 })
  | Dropped _ -> Dropped { msg_id = w () }
  | Reset_done _ -> Reset_done { pid = w () }
  | Crashed _ -> Crashed { pid = w () }
  | Decided d -> Decided { d with pid = w (); value = not d.value }
  | Window_closed { index } -> Window_closed { index = index + 1 }

let msg_id_of (event : Dsim.Trace.event) =
  match event with
  | Sent { msg_id; _ } | Delivered { msg_id; _ } | Dropped { msg_id } -> Some msg_id
  | Reset_done _ | Crashed _ | Decided _ | Window_closed _ -> None

let relabel ~from ~into (event : Dsim.Trace.event) : Dsim.Trace.event =
  match event with
  | Sent e when e.msg_id = from -> Sent { e with msg_id = into }
  | Delivered e when e.msg_id = from -> Delivered { e with msg_id = into }
  | Dropped { msg_id } when msg_id = from -> Dropped { msg_id = into }
  | e -> e

let mutate rng ~n events =
  let a = ref (Array.of_list events) in
  for _ = 1 to 1 + Prng.Stream.int_below rng 6 do
    let len = Array.length !a in
    let count = len in
    let duplicate i =
      a := Array.concat [ Array.sub !a 0 (i + 1); Array.sub !a i (len - i) ]
    in
    if len > 0 then begin
      let i = Prng.Stream.int_below rng len in
      match Prng.Stream.int_below rng 7 with
      | 0 -> duplicate i
      | 1 ->
          (* remove *)
          a := Array.append (Array.sub !a 0 i) (Array.sub !a (i + 1) (len - i - 1))
      | 2 ->
          (* swap *)
          let j = Prng.Stream.int_below rng len in
          let x = !a.(i) in
          !a.(i) <- !a.(j);
          !a.(j) <- x
      | 3 ->
          (* an early decision, before any quorum was heard *)
          let pid = wild rng ~n ~count in
          let decided =
            Dsim.Trace.Decided
              { pid; value = Prng.Stream.bool rng; step = 0; window = 0; chain_depth = 0 }
          in
          a := Array.concat [ Array.sub !a 0 i; [| decided |]; Array.sub !a i (len - i) ]
      | 4 -> (
          (* every event of one message moves to another id, often one
             outside the dense range, so whole lifetimes run there *)
          match msg_id_of !a.(i) with
          | Some from ->
              let into =
                if Prng.Stream.bool rng then pick rng (odd_ids count)
                else wild rng ~n ~count
              in
              a := Array.map (relabel ~from ~into) !a;
              (* and sometimes sent, delivered or dropped twice there *)
              if Prng.Stream.bool rng then duplicate i
          | None -> ())
      | _ -> !a.(i) <- mutate_event rng ~n ~count !a.(i)
    end
  done;
  Array.to_list !a

(* A hand-written-style list: random events over a small pool of ids
   and pids, extremes included, so the same odd id is sent, delivered
   and dropped several times, and channels open on any id. *)
let synthetic_events rng ~n =
  let ids = [ 0; 1; 2; 3; -1; max_int; min_int ] in
  let pids = [ 0; 1; n - 1; -1; n; max_int ] in
  List.init (20 + Prng.Stream.int_below rng 40) (fun _ : Dsim.Trace.event ->
      let src = pick rng pids and dst = pick rng pids and msg_id = pick rng ids in
      let depth = Prng.Stream.int_below rng 3 in
      match Prng.Stream.int_below rng 8 with
      | 0 | 1 -> Sent { src; dst; msg_id; depth }
      | 2 | 3 -> Delivered { src; dst; msg_id; depth }
      | 4 -> Dropped { msg_id }
      | 5 -> Reset_done { pid = src }
      | 6 ->
          Decided
            {
              pid = src;
              value = Prng.Stream.bool rng;
              step = 0;
              window = 0;
              chain_depth = 0;
            }
      | _ -> Window_closed { index = Prng.Stream.int_below rng 3 })

let prop_mutated_traces =
  QCheck.Test.make ~count:300 ~name:"dense auditor = reference on mutated traces"
    QCheck.small_nat (fun seed ->
      let rng = Prng.Stream.root ((seed * 31_337) + 1) in
      let n, t = shape rng in
      let events =
        match Prng.Stream.int_below rng 3 with
        | 0 -> windowed_events rng ~n ~t
        | 1 -> stepwise_events rng ~n ~t
        | _ -> synthetic_events rng ~n
      in
      agrees ~n ~t (mutate rng ~n events))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_engine_traces; prop_audit_matches_reference; prop_mutated_traces ]
