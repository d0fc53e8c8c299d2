(* Layer boundaries, seen from outside the library: the protocol record
   fields and the adversary closure are replaced by timed versions that
   charge [Probe] and then call the originals, so the library needs no
   instrumentation of its own.  A wrapped protocol is behaviourally
   identical to the original (same results, same coins). *)

let protocol (p : ('s, 'm) Dsim.Protocol.t) : ('s, 'm) Dsim.Protocol.t =
  let on_deliver s ~src m rng =
    Probe.enter ();
    let w0 = Probe.words () in
    let t0 = Probe.now () in
    let s' = p.on_deliver s ~src m rng in
    Probe.leave Probe.on_deliver t0 w0;
    s'
  in
  {
    p with
    on_deliver;
    outgoing = Probe.timed Probe.outgoing p.outgoing;
    on_reset = Probe.timed Probe.on_reset p.on_reset;
    observe = Probe.timed Probe.observe p.observe;
    state_core = Probe.timed Probe.state_core p.state_core;
  }

(* One adversary decision (a window or a step) per call. *)
let strategy decide = Probe.timed Probe.adversary decide

(* Untraced op clock: the gap between consecutive adversary decisions
   is one op (the decision plus the window or step it chose). *)
let stamped h decide config =
  Probe.Lat.stamp h;
  decide config
