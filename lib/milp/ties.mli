(** Explicit tie rules for the search decisions of branch and bound.

    Every decision that compares two floats coming out of an LP solve —
    which variable is most fractional, which branching entity scores
    best, which open node is popped next, whether a new incumbent
    displaces an equal one, which Gomory rows are kept — compares with a
    stated tolerance first and breaks what remains by an index or a
    branch path.  A last-bit change in the LP values (a different but
    numerically equivalent factorization, say) then cannot change the
    search, except for values that sit within a few ULPs of a tolerance
    boundary. *)

val rel_tol : float
(** [1e-9]: two finite values tie when they differ by at most
    [rel_tol * max 1 |a| |b|]. *)

val compare : float -> float -> int
(** [compare a b] is [0] when [a] and [b] tie (see {!rel_tol}; equal
    values, infinities included, always tie), otherwise
    [Float.compare a b].  Not transitive across chains of near-ties. *)

val most_fractional : int_tol:float -> int list -> float array -> int option
(** The variable whose value is farthest from an integer (distance above
    [int_tol]); among tied distances, the smallest variable index. *)

val pick_max : (int * float) list -> int option
(** The key with the largest score; among tied scores, the smallest
    key. *)

val compare_nodes :
  minimize:bool ->
  float * int * int list ->
  float * int * int list ->
  int
(** Open-node order on [(bound, depth, path)], smallest first: best
    bound (the smaller one when minimizing), then deeper first, then the
    root-first lexicographic order of the branch paths (stored
    innermost-first).  Bounds are compared with {!compare}. *)

val path_compare : int list -> int list -> int
(** Root-first lexicographic order on innermost-first branch paths. *)
