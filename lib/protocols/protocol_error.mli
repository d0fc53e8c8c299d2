(** Typed taxonomy of protocol-construction errors.

    Every way a protocol constructor can reject its arguments is one of
    these variants; [raise_error] renders it and raises
    [Invalid_argument], so existing [try ... with Invalid_argument _]
    callers keep working while programmatic callers can build and
    pattern-match the variants directly.

    The rendered messages are pinned by the test suite — treat them as
    API. *)

type t =
  | Infeasible_thresholds of { who : string; n : int; t : int; reason : string }
      (** The (T1, T2, T3) triple implied by (n, t) — or supplied
          explicitly — fails {!Thresholds.validate}. [who] is the
          rejecting constructor (e.g. ["Thresholds.default"]),
          [reason] the first violated inequality. *)
  | Origin_out_of_range of { who : string; origin : int; n : int }
      (** A designated-sender index outside [0, n). *)
  | Input_arity_mismatch of { who : string; expected : int; got : int }
      (** An input vector whose length disagrees with [n]. *)
  | Instance_key_out_of_range of { who : string; origin : int; tag : int }
      (** A broadcast instance [(origin, tag)] outside the range its
          packed integer key can represent without colliding: origin in
          [\[0, 2^30)], tag in [\[-2^31, 2^31)]. *)

val to_string : t -> string
(** Render the pinned diagnostic message (no trailing newline). *)

val raise_error : t -> 'a
(** [raise_error e] raises [Invalid_argument (to_string e)]. *)
