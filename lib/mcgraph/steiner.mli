(** Steiner trees in graphs.

    [kmb] is the 2(1 − 1/|S|)-approximation of Kou, Markowsky and Berman
    (Acta Informatica 1981) used throughout the paper; [exact] is the
    Dreyfus–Wagner dynamic program, exponential in the number of
    terminals, used on small instances and as a test oracle. *)

val kmb : Graph.t -> weight:(int -> float) -> terminals:int list -> int list option
(** Edge ids of an approximate Steiner tree spanning [terminals];
    [None] when the terminals are not mutually reachable (under finite
    weights). A single terminal yields [Some []]. Runs one Dijkstra per
    terminal. *)

val kmb_with_metric :
  Graph.t ->
  weight:(int -> float) ->
  terminals:int list ->
  dist:(int -> int -> float) ->
  path:(int -> int -> int list option) ->
  int list option
(** KMB where the metric closure is supplied by the caller: [dist u v]
    is the shortest-path cost between nodes and [path u v] its edge ids.
    Used with precomputed all-pairs data to avoid re-running Dijkstra for
    every server combination of [Appro_Multi]. [weight] must agree with
    the metric (it prices the edges returned by [path]). [dist u] is
    applied once per closure-tree node and reused for every [v], so a
    staged [dist] can hoist its per-source work. *)

val exact : Graph.t -> weight:(int -> float) -> terminals:int list -> int list option
(** Optimal Steiner tree by Dreyfus–Wagner: O(3^t·n + 2^t·n²) for [t]
    terminals. Raises [Invalid_argument] when [t > 15]. *)

val prune : Graph.t -> terminals:int list -> int list -> int list
(** Repeatedly remove edges whose endpoint of degree one is not a
    terminal; the standard final step of KMB. The edge ids must be
    distinct; the survivors keep their input order. O(|V| + |E|) on
    node- and edge-indexed arrays. *)

val tree_cost : weight:(int -> float) -> int list -> float
(** Total weight of an edge-id list. *)

val is_steiner_tree : Graph.t -> terminals:int list -> int list -> bool
(** Structural check: the edge set is a tree (acyclic, connected) whose
    node set contains every terminal. *)
