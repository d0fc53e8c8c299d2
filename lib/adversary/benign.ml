let windowed () =
  fun config -> Some (Dsim.Window.uniform ~n:(Dsim.Engine.n config) ())

(* Agenda-driven step strategies: when the queue empties, plan the next
   full cycle based on the current configuration. *)
let agenda_strategy plan =
  let queue = Queue.create () in
  fun config ->
    if Queue.is_empty queue then List.iter (fun s -> Queue.add s queue) (plan config);
    if Queue.is_empty queue then None else Some (Queue.pop queue)

let live_pids config =
  let n = Dsim.Engine.n config in
  List.filter (fun p -> not (Dsim.Engine.crashed config p)) (List.init n (fun i -> i))

let lockstep () =
  agenda_strategy (fun config ->
      let sends = List.map (fun p -> Dsim.Step.Send p) (live_pids config) in
      let delivers =
        List.map
          (fun id -> Dsim.Step.Deliver id)
          (Dsim.Mailbox.pending_ids (Dsim.Engine.mailbox config))
      in
      sends @ delivers)

let random_fair ~seed ~drop_probability () =
  let rng = Prng.Stream.root seed in
  agenda_strategy (fun config ->
      let sends = List.map (fun p -> Dsim.Step.Send p) (live_pids config) in
      let delivers =
        List.filter_map
          (fun id ->
            if Prng.Stream.bernoulli rng drop_probability then None
            else Some (Dsim.Step.Deliver id))
          (Dsim.Mailbox.pending_ids (Dsim.Engine.mailbox config))
      in
      sends @ delivers)
