(** Filesystem walker, typed-layer entry point, baselines and report
    rendering (human / json / SARIF) for both lint layers. *)

type report = {
  diagnostics : Static_lint.diagnostic list;  (** sorted by (path, line, col) *)
  errors : string list;  (** unparsable / unreadable files *)
  files_scanned : int;
}

val default_dirs : string list
(** ["lib"; "bin"; "bench"; "examples"] — the trees the issue puts in
    scope. *)

val default_hash_allowlist : string list
(** Path fragments for which R2 is waived (the linter's own rule tables
    and this module's test fixtures name [Hashtbl.hash] on purpose). *)

val default_domain_allowlist : string list
(** Path fragments for which R6 is waived: [lib/core/par_sweep] — the
    one sanctioned home of [Domain]/[Atomic] — plus the linter's own
    rule tables, which spell the banned names out. *)

val scan :
  ?hash_allowlist:string list ->
  ?domain_allowlist:string list ->
  ?dirs:string list ->
  root:string ->
  unit ->
  report
(** Walk [dirs] under [root] (skipping [_build] and dot-directories),
    lint every [.ml] file, and merge the results.  Paths in the report
    are relative to [root]. *)

val scan_typed :
  ?config:Typed_lint.config -> ?dirs:string list -> root:string -> unit -> report
(** Run the typed layer (R7-R10): load every [*.cmt] under
    [root/_build/default/<dirs>] (or [root/<dirs>] when the build tree
    itself is the root, as under a dune rule) and analyze.  When no cmt
    is found the report carries a single error telling the caller to
    [dune build] first — the typed linter never silently passes on an
    unbuilt tree.  [files_scanned] counts loaded compilation units. *)

val scan_cost :
  ?config:Cost_lint.config -> ?dirs:string list -> root:string -> unit -> report
(** Run the cost layer (R11-R14) over the same [*.cmt] trees as
    {!scan_typed}; identical cmt discovery and error behaviour. *)

val scan_quorum :
  ?config:Quorum_lint.config ->
  ?dirs:string list ->
  root:string ->
  unit ->
  report
(** Run the quorum layer (R15-R18) over the same [*.cmt] trees as
    {!scan_typed}; identical cmt discovery and error behaviour. *)

(** {2 Baselines}

    A baseline file accepts known findings: [RULE<TAB>PATH<TAB>MESSAGE]
    lines, ['#'] comments.  Messages deliberately contain no line
    numbers, so baselines survive unrelated edits. *)

val baseline_key : Static_lint.diagnostic -> string * string * string
(** (rule id, path, message) — the identity a baseline entry matches. *)

val read_baseline :
  string -> ((string * string * string) list, string) result

val apply_baseline :
  (string * string * string) list -> report -> report * int
(** Drop baselined diagnostics; returns the filtered report and how
    many findings the baseline waived. *)

val stale_baseline :
  (string * string * string) list -> report -> (string * string * string) list
(** The entries, in file order, that match no diagnostic of the
    (unfiltered) report: waivers for findings that no longer exist.
    The CLI prints each one and fails, so a baseline cannot keep
    silently waiving code that was deleted or fixed. *)

val exit_code : ?stale:(string * string * string) list -> report -> int
(** The CLI's exit contract: 2 when the report carries scan errors,
    else 1 when it has findings or [stale] (default empty) names a
    stale baseline entry, else 0. *)

val render_baseline : Format.formatter -> report -> unit
(** Emit the report's diagnostics in baseline syntax (the documented
    way to seed a baseline file).  Entries are sorted by
    (rule, path, message) and deduplicated — diagnostics differing only
    in position collapse to one entry — so regenerating a baseline is
    deterministic and diff-friendly. *)

val render_human : Format.formatter -> report -> unit
(** "path:line:col: [Rn] message" lines plus a summary line. *)

val render_json : Format.formatter -> report -> unit
(** Machine-readable report:
    [{"files_scanned":N,"violations":[{"path":..,"line":..,"col":..,
    "rule":..,"message":..}],"errors":[..]}]. *)

val render_sarif : Format.formatter -> report -> unit
(** SARIF 2.1.0: one run, rule metadata for R1-R10 from {!Rules},
    results with physical locations (1-based columns), errors as tool
    execution notifications. *)

val ok : report -> bool
(** True when there are neither diagnostics nor errors. *)
