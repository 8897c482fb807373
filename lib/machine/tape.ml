(* Execution tape: schedule-independent record of one simulated run.
   See tape.mli for the model; Summary replays these ops. *)

open Dvs_ir

(* ---- op encoding ------------------------------------------------------ *)

let tag_compute = 0

let tag_hit = 1

let tag_wait = 2

let tag_clear = 3

let tag_miss_load = 4

let tag_miss_store = 5

let tag_modeset = 6

let enc tag payload = (payload lsl 3) lor tag

let op_compute c = enc tag_compute c

let op_hit c = enc tag_hit c

let op_wait r = enc tag_wait r

let op_clear r = enc tag_clear r

let op_miss_load rd = enc tag_miss_load rd

let op_miss_store = enc tag_miss_store 0

let op_modeset m = enc tag_modeset m

let op_tag op = op land 7

let op_payload op = op lsr 3

(* ---- variants --------------------------------------------------------- *)

type variant = {
  label : Cfg.label;
  ops : int array;
  dyn : int;
  summarizable : bool;
}

(* ---- packed position stream ------------------------------------------- *)

(* One 32-bit word per dynamic block: [(edge + 1) lsl variant_bits lor
   variant], edge [-1] (field 0) at program entry.  The edge field gets
   just enough bits for the CFG's edge count and the variant field the
   rest, so a program never hits the limit unless it has hundreds of
   millions of variants.  Words live in fixed-size chunks: growing
   appends a chunk, never copies the stream. *)

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let chunk_bits = 14

let chunk_len = 1 lsl chunk_bits

let chunk_mask = chunk_len - 1

let word_bits = 32

let variant_bits ~n_edges =
  if n_edges < 0 then invalid_arg "Tape.variant_bits: negative edge count";
  (* the edge field holds 0 .. n_edges *)
  let rec bits k = if n_edges lsr k = 0 then k else bits (k + 1) in
  let vb = word_bits - bits 0 in
  if vb < 1 then invalid_arg "Tape: too many CFG edges for the position stream";
  vb

let pack_bits vb ~n_edges ~variant ~edge =
  if variant < 0 || variant lsr vb <> 0 then
    invalid_arg
      (Printf.sprintf "Tape.pack: variant %d overflows %d bits" variant vb);
  if edge < -1 || edge >= n_edges then
    invalid_arg
      (Printf.sprintf "Tape.pack: edge %d outside [-1, %d)" edge n_edges);
  ((edge + 1) lsl vb) lor variant

let pack ~n_edges ~variant ~edge =
  pack_bits (variant_bits ~n_edges) ~n_edges ~variant ~edge

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash = Hashtbl.hash
end)

(* Growable int buffer (no Buffer for ints in the stdlib). *)
module Ibuf = struct
  type t = { mutable data : int array; mutable len : int }

  let create n = { data = Array.make (Int.max n 16) 0; len = 0 }

  let clear b = b.len <- 0

  let push b v =
    if b.len = Array.length b.data then begin
      let data = Array.make (2 * b.len) 0 in
      Array.blit b.data 0 data 0 b.len;
      b.data <- data
    end;
    b.data.(b.len) <- v;
    b.len <- b.len + 1
end

type recorder = {
  cfg : Cfg.t;
  n_edges : int;
  vbits : int;
  (* variant hash-consing: hash of (label, ops) -> candidate indices *)
  intern : int list Itbl.t;
  last_of : int array;  (* per label, the variant it last produced *)
  mutable vars : variant array;  (* first [n_vars] slots live *)
  mutable n_vars : int;
  mutable chunks : Bytes.t array;  (* first [n_chunks] slots live *)
  mutable n_chunks : int;
  mutable len : int;  (* positions written *)
  cur : Ibuf.t;  (* ops of the block being recorded *)
  mutable cur_label : Cfg.label;
  mutable cur_edge : int;
  mutable cur_dyn : int;
  mutable in_block : bool;
}

let no_variant = { label = -1; ops = [||]; dyn = 0; summarizable = true }

let recorder cfg =
  let n_edges = Array.length (Cfg.edges cfg) in
  { cfg; n_edges; vbits = variant_bits ~n_edges; intern = Itbl.create 256;
    last_of = Array.make (Cfg.num_blocks cfg) (-1);
    vars = Array.make 64 no_variant; n_vars = 0;
    chunks = Array.make 16 Bytes.empty; n_chunks = 0; len = 0;
    cur = Ibuf.create 64; cur_label = 0; cur_edge = -1; cur_dyn = 0;
    in_block = false }

let push_word r w =
  let slot = r.len land chunk_mask in
  if slot = 0 then begin
    if r.n_chunks = Array.length r.chunks then begin
      let chunks = Array.make (2 * r.n_chunks) Bytes.empty in
      Array.blit r.chunks 0 chunks 0 r.n_chunks;
      r.chunks <- chunks
    end;
    r.chunks.(r.n_chunks) <- Bytes.create (4 * chunk_len);
    r.n_chunks <- r.n_chunks + 1
  end;
  set32 r.chunks.(r.n_chunks - 1) (4 * slot) (Int32.of_int w);
  r.len <- r.len + 1

let hash_current r =
  let h = ref (r.cur_label + 0x9e3779b9) in
  let data = r.cur.Ibuf.data in
  for i = 0 to r.cur.Ibuf.len - 1 do
    h := (!h * 31) + data.(i)
  done;
  !h land max_int

let matches r (v : variant) =
  v.label = r.cur_label
  && Array.length v.ops = r.cur.Ibuf.len
  &&
  let data = r.cur.Ibuf.data in
  let rec eq i = i < 0 || (v.ops.(i) = data.(i) && eq (i - 1)) in
  eq (r.cur.Ibuf.len - 1)

let new_variant r h cands =
  let ops = Array.sub r.cur.Ibuf.data 0 r.cur.Ibuf.len in
  let summarizable =
    Array.for_all
      (fun op ->
        let t = op_tag op in
        t <> tag_miss_load && t <> tag_miss_store && t <> tag_modeset)
      ops
  in
  let id = r.n_vars in
  if id = Array.length r.vars then begin
    let vars = Array.make (2 * id) no_variant in
    Array.blit r.vars 0 vars 0 id;
    r.vars <- vars
  end;
  r.vars.(id) <- { label = r.cur_label; ops; dyn = r.cur_dyn; summarizable };
  r.n_vars <- id + 1;
  Itbl.replace r.intern h (id :: cands);
  id

let flush_block r =
  if r.in_block then begin
    (* Intern in place: a block mostly repeats its previous variant, so
       try that first; otherwise hash the op buffer and compare it
       against the candidates under that hash.  Only a new variant
       allocates. *)
    let last = r.last_of.(r.cur_label) in
    let id =
      if last >= 0 && matches r r.vars.(last) then last
      else begin
        let h = hash_current r in
        let cands = try Itbl.find r.intern h with Not_found -> [] in
        let rec find = function
          | [] -> new_variant r h cands
          | id :: rest -> if matches r r.vars.(id) then id else find rest
        in
        let id = find cands in
        r.last_of.(r.cur_label) <- id;
        id
      end
    in
    push_word r
      (pack_bits r.vbits ~n_edges:r.n_edges ~variant:id ~edge:r.cur_edge);
    Ibuf.clear r.cur;
    r.cur_dyn <- 0;
    r.in_block <- false
  end

let enter_block r ~label ~via =
  flush_block r;
  r.cur_edge <-
    (match via with
    | None -> -1
    | Some src -> (
      match Cfg.edge_index r.cfg { Cfg.src; dst = label } with
      | idx -> idx
      | exception Not_found -> -1));
  r.cur_label <- label;
  r.in_block <- true

let record r op = Ibuf.push r.cur op

let instr r = r.cur_dyn <- r.cur_dyn + 1

type t = {
  variants : variant array;
  stream : Bytes.t array;
  positions : int;
  variant_bits : int;
  first_edge_pos : int array;
  n_edges : int;
  n_regs : int;
  dyn_instrs : int;
  l1 : Cache.stats;
  l2 : Cache.stats;
  registers : int array;
  memory : int array;
}

let word t p =
  Int32.to_int (get32 t.stream.(p lsr chunk_bits) (4 * (p land chunk_mask)))
  land 0xFFFF_FFFF

let unpack t ~pos ~variants ~edges =
  if pos < 0 || Array.length edges < Array.length variants then
    invalid_arg "Tape.unpack";
  let n = Int.max 0 (Int.min (Array.length variants) (t.positions - pos)) in
  let vb = t.variant_bits in
  for i = 0 to n - 1 do
    let w = word t (pos + i) in
    variants.(i) <- w land ((1 lsl vb) - 1);
    edges.(i) <- (w lsr vb) - 1
  done;
  n

let create r ~dyn_instrs ~l1 ~l2 ~registers ~memory =
  flush_block r;
  if r.len = 0 then invalid_arg "Tape.create: empty recording";
  let t =
    { variants = Array.sub r.vars 0 r.n_vars;
      stream = Array.sub r.chunks 0 r.n_chunks; positions = r.len;
      variant_bits = r.vbits; first_edge_pos = Array.make r.n_edges max_int;
      n_edges = r.n_edges; n_regs = Array.length registers; dyn_instrs; l1;
      l2; registers; memory }
  in
  for pos = r.len - 1 downto 0 do
    let e = (word t pos lsr t.variant_bits) - 1 in
    if e >= 0 then t.first_edge_pos.(e) <- pos
  done;
  t

let positions t = t.positions

let first_divergence t ~entry_changed ~edges =
  if entry_changed then Some 0
  else
    let p =
      List.fold_left
        (fun acc e ->
          if e >= 0 && e < t.n_edges then Int.min acc t.first_edge_pos.(e)
          else acc)
        max_int edges
    in
    if p = max_int then None else Some p
