let rel_tol = 1e-9

let compare a b =
  if a = b then 0
  else if
    Float.is_finite a && Float.is_finite b
    && Float.abs (a -. b)
       <= rel_tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
  then 0
  else Float.compare a b

let most_fractional ~int_tol vars values =
  let best = ref None in
  List.iter
    (fun v ->
      let x = values.(v) in
      let frac = x -. Float.floor x in
      let dist = Float.min frac (1.0 -. frac) in
      if dist > int_tol then
        match !best with
        | None -> best := Some (v, dist)
        | Some (bv, bd) ->
          let c = compare dist bd in
          if c > 0 || (c = 0 && v < bv) then best := Some (v, dist))
    vars;
  Option.map fst !best

let pick_max scored =
  List.fold_left
    (fun best (k, s) ->
      match best with
      | None -> Some (k, s)
      | Some (bk, bs) ->
        let c = compare s bs in
        if c > 0 || (c = 0 && k < bk) then Some (k, s) else best)
    None scored
  |> Option.map fst

let path_compare a b = Stdlib.compare (List.rev a) (List.rev b)

let compare_nodes ~minimize (ba, da, pa) (bb, db, pb) =
  let c = if minimize then compare ba bb else compare bb ba in
  let c = if c <> 0 then c else Int.compare db da in
  if c <> 0 then c else path_compare pa pb
