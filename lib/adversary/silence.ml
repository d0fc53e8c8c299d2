(* All four strategies build a fresh [Dsim.Window.uniform] per window:
   one shared mask of n / 63 words, so rebuilding it each window costs
   less than the window's own deliveries and needs no memo. *)

let fixed ~silenced config =
  Some (Dsim.Window.uniform ~n:(Dsim.Engine.n config) ~silenced ())

let rotating ~period ~count =
  if period <= 0 then invalid_arg "Silence.rotating: period must be positive";
  fun config ->
    let n = Dsim.Engine.n config in
    let block = Dsim.Engine.window_index config / period in
    let silenced = List.init count (fun i -> (i + (block * count)) mod n) in
    Some (Dsim.Window.uniform ~n ~silenced ())

let first_t config =
  let n = Dsim.Engine.n config and t = Dsim.Engine.fault_bound config in
  let silenced = List.init t (fun i -> i) in
  Some (Dsim.Window.uniform ~n ~silenced ())

let last_t config =
  let n = Dsim.Engine.n config and t = Dsim.Engine.fault_bound config in
  let silenced = List.init t (fun i -> n - t + i) in
  Some (Dsim.Window.uniform ~n ~silenced ())
