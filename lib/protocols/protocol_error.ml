type t =
  | Infeasible_thresholds of { who : string; n : int; t : int; reason : string }
  | Origin_out_of_range of { who : string; origin : int; n : int }
  | Input_arity_mismatch of { who : string; expected : int; got : int }
  | Instance_key_out_of_range of { who : string; origin : int; tag : int }

(* The rendered strings are part of the public contract: tests pin them
   with [Alcotest.check_raises], so changing a format here is an API
   break, not a cosmetic edit.  The diagnostic payload (origin, got,
   ...) is for programmatic callers; the messages stay terse on purpose
   so they survive unrelated refactors of the carried fields. *)
let to_string = function
  | Infeasible_thresholds { who; n; t; reason } ->
      Printf.sprintf "%s: infeasible for n=%d t=%d (%s)" who n t reason
  | Origin_out_of_range { who; origin = _; n = _ } ->
      Printf.sprintf "%s: origin out of range" who
  | Input_arity_mismatch { who; expected = _; got = _ } ->
      Printf.sprintf "%s: |inputs| <> n" who
  | Instance_key_out_of_range { who; origin = _; tag = _ } ->
      Printf.sprintf "%s: instance key out of range" who

let raise_error error = invalid_arg (to_string error)
