(* Known answers: the MILP objective of every deadline point the
   workloads can produce, kept in perfbench/known_answers.json and
   compared on every op.  [--write-answers FILE] regenerates the file
   from one full-size pass of every workload. *)

module Json = Dvs_obs.Json

let schema = "perfbench-answers/v1"

let default_path = "perfbench/known_answers.json"

(* Objectives are compared relative to the answer.  The solver stops at
   a relative gap of 1e-9; the service may answer a point through the
   sweep path or the single-solve path, whose float summation orders
   differ, so the check allows 1e-6. *)
let rel_tol = 1e-6

type t = (string, float) Hashtbl.t
(* key: "<workload>/<point key>" -> objective, model units (uJ) *)

let load path : (t, string) result =
  match Json.of_string (Util.read_file path) with
  | exception Sys_error e -> Error e
  | Error e -> Error (path ^ ": " ^ e)
  | Ok j -> (
    match (Json.member "schema" j, Json.member "answers" j) with
    | Some (Json.String s), Some (Json.Obj wls) when s = schema ->
      let h = Hashtbl.create 256 in
      let bad = ref None in
      List.iter
        (fun (wl, pts) ->
          match pts with
          | Json.Obj kvs ->
            List.iter
              (fun (k, v) ->
                match Json.to_float v with
                | Some f -> Hashtbl.replace h (wl ^ "/" ^ k) f
                | None -> bad := Some (wl ^ "/" ^ k))
              kvs
          | _ -> bad := Some wl)
        wls;
      (match !bad with
      | None -> Ok h
      | Some k -> Error (path ^ ": malformed answer " ^ k))
    | _ -> Error (path ^ ": not a " ^ schema ^ " document"))

(* [Ok ()] when the objective matches, [Error why] otherwise. *)
let check (t : t) ~workload ~key objective =
  match Hashtbl.find_opt t (workload ^ "/" ^ key) with
  | None -> Error (Printf.sprintf "no known answer for %s/%s" workload key)
  | Some a ->
    if Float.abs (objective -. a) <= rel_tol *. Float.abs a then Ok ()
    else
      Error
        (Printf.sprintf "%s/%s: objective %.17g, known answer %.17g" workload
           key objective a)

(* Answers gathered while writing a new file, per workload. *)
let collected : (string, (string * float) list) Hashtbl.t = Hashtbl.create 8

let record ~workload ~key objective =
  let prev = Option.value ~default:[] (Hashtbl.find_opt collected workload) in
  if not (List.mem_assoc key prev) then
    Hashtbl.replace collected workload ((key, objective) :: prev)

let write path =
  let wls =
    Hashtbl.fold (fun wl kvs acc -> (wl, kvs) :: acc) collected []
    |> List.sort compare
  in
  let doc =
    Json.Obj
      [ ("schema", Json.String schema);
        ( "answers",
          Json.Obj
            (List.map
               (fun (wl, kvs) ->
                 ( wl,
                   Json.Obj
                     (List.map
                        (fun (k, v) -> (k, Json.Float v))
                        (List.sort compare kvs)) ))
               wls) ) ]
  in
  (* One workload per line keeps the file diffable. *)
  let body =
    match doc with
    | Json.Obj [ s; (_, Json.Obj ws) ] ->
      Printf.sprintf "{%s:%s,\n\"answers\":{\n%s\n}}\n"
        (Json.to_string (Json.String (fst s)))
        (Json.to_string (snd s))
        (String.concat ",\n"
           (List.map
              (fun (wl, v) ->
                Json.to_string (Json.String wl) ^ ":" ^ Json.to_string v)
              ws))
    | _ -> Json.to_string doc
  in
  Util.write_file path body
