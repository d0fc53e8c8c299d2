(** Bracha's reliable broadcast primitive (PODC 1984), the substrate of
    his [t < n/3]-resilient agreement protocol.

    For each broadcast instance — identified by (origin, tag) — every
    processor runs the echo/ready state machine:

    - on the origin's [Initial] message: send [Echo] to all;
    - on more than [(n + t) / 2] matching [Echo]s: send [Ready] to all;
    - on [t + 1] matching [Ready]s (if not yet sent): send [Ready];
    - on [2t + 1] matching [Ready]s: accept the payload.

    With [t < n/3] Byzantine processors this guarantees that correct
    processors accept at most one payload per instance and that if any
    correct processor accepts, all eventually do — equivocation is
    neutralized, which is exactly the power the strongly adaptive
    adversary is noted to lack.

    The module is a value-level component meant to be embedded in a
    protocol state; all operations are pure. *)

type 'p t
(** One processor's bookkeeping across all instances it has seen. *)

type 'p msg =
  | Initial of { tag : int; payload : 'p }
  | Echo of { origin : int; tag : int; payload : 'p }
  | Ready of { origin : int; tag : int; payload : 'p }

val create :
  ?echo_quorum:int ->
  ?ready_resend:int ->
  ?accept_quorum:int ->
  n:int ->
  t:int ->
  self:int ->
  equal:('p -> 'p -> bool) ->
  unit ->
  'p t
(** [equal] decides when two payloads match for quorum counting; it
    must be a structural, deterministic equality (polymorphic [=] is
    banned in this subtree by lint rule R7).

    The optional thresholds override the sound defaults — matching
    echoes needed to send [Ready] ([(n + t) / 2 + 1]), matching
    [Ready]s that trigger a relayed [Ready] ([t + 1]), and matching
    [Ready]s needed to accept ([2t + 1]).  They exist for
    mutation-style negative tests: the model checker deliberately
    weakens them and must then find a violating schedule. *)

val reset_like : 'p t -> 'p t
(** A fresh state with the same parameters (n, t, self, equality, and
    any overridden thresholds): what a resetting processor restarts
    with. *)

val broadcast : 'p t -> tag:int -> 'p -> 'p t * 'p msg Dsim.Step.send list
(** Start an instance as origin: the [Initial] send (a single
    [Step.Broadcast], expanded lazily by the engine).  Re-broadcasting
    a tag already used is ignored (empty sends). *)

val receive :
  'p t -> src:int -> 'p msg -> 'p t * 'p msg Dsim.Step.send list * (int * 'p) list
(** Process an incoming RBC message.  Returns the new state, sends to
    queue, and the list of [(origin, payload)] newly accepted by this
    call (at most one).  A message that changes nothing (a duplicate
    [Initial], or a repeated sender) returns the state physically
    unchanged.

    [src] is a pid, so non-negative.  Instances are keyed by a packed
    int, so the origin must lie in [\[0, 2^30)] and the tag in
    [\[-2^31, 2^31)]; anything else raises
    {!Protocol_error.Instance_key_out_of_range} (as [Invalid_argument])
    rather than colliding with another instance. *)

val accepted : 'p t -> tag:int -> (int * 'p) list
(** All [(origin, payload)] pairs accepted so far for a tag,
    ascending origin. *)

val accepted_count : 'p t -> tag:int -> int

val fingerprint : ('p -> string) -> 'p t -> string
(** Canonical serialization for state digests. *)
