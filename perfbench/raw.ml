(* Named sums the traced run accumulates; the per-layer metrics are
   formulas over them (see [Main.per_layer]). *)

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64

let get (t : t) k = Option.value ~default:0.0 (Hashtbl.find_opt t k)

let add (t : t) k v = Hashtbl.replace t k (get t k +. v)

let set (t : t) k v = Hashtbl.replace t k v
