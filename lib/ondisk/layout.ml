type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let map_file path : buf =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if size = 0 then
        failwith (Printf.sprintf "Ondisk: %s is empty" path);
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |]))

let of_string s : buf =
  Bigarray.Array1.init Bigarray.char Bigarray.c_layout (String.length s)
    (String.get s)

let length (b : buf) = Bigarray.Array1.dim b

let check b pos len what =
  if pos < 0 || len < 0 || pos + len > length b then
    failwith
      (Printf.sprintf
         "Ondisk: truncated file (%s at offset %d needs %d bytes of %d)" what
         pos len (length b))

let u8 b pos =
  check b pos 1 "byte";
  Char.code (Bigarray.Array1.unsafe_get b pos)

(* Byte [pos] of an already bounds-checked range. The [buf] annotation
   lets the compiler inline the load; with the element kind unknown,
   every read would be a C call. *)
let byte (b : buf) pos = Char.code (Bigarray.Array1.unsafe_get b pos)

(* No local closure: skip-table probes call this on every seek. *)
let u32le b pos =
  check b pos 4 "u32";
  byte b pos
  lor (byte b (pos + 1) lsl 8)
  lor (byte b (pos + 2) lsl 16)
  lor (byte b (pos + 3) lsl 24)

let u64le b pos =
  check b pos 8 "u64";
  let g i = Char.code (Bigarray.Array1.unsafe_get b (pos + i)) in
  if g 7 land 0xc0 <> 0 then failwith "Ondisk: u64 overflows OCaml int";
  g 0 lor (g 1 lsl 8) lor (g 2 lsl 16) lor (g 3 lsl 24) lor (g 4 lsl 32)
  lor (g 5 lsl 40) lor (g 6 lsl 48) lor (g 7 lsl 56)

(* A varint's 9th byte holds bits 56-62 of the value: above [0x3f] it
   would set the sign bit or continue past 63 bits — the same rule as
   [Pj_util.Bytecodec.read_varint]. *)
let read_varint b ~pos =
  let value = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= length b then failwith "Ondisk: truncated varint";
    let byte = Char.code (Bigarray.Array1.unsafe_get b !pos) in
    if !shift = 56 && byte > 0x3f then failwith "Ondisk: varint overflow";
    incr pos;
    value := !value lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then continue := false
  done;
  !value

(* Exactly what [read_varint] accepts (a truncated varint fails, and so
   does a 9th byte above [0x3f]), found by counting terminator bytes
   instead of decoding the values. *)
let skip_varints b ~pos count =
  let len = length b in
  let p = ref !pos and left = ref count and run = ref 0 in
  while !left > 0 do
    if !p >= len then failwith "Ondisk: truncated varint";
    let v = byte b !p in
    if !run = 8 && v > 0x3f then failwith "Ondisk: varint overflow";
    incr p;
    if v land 0x80 = 0 then begin
      decr left;
      run := 0
    end
    else incr run
  done;
  pos := !p

let sub_string b ~pos ~len =
  check b pos len "string";
  String.init len (fun i -> Bigarray.Array1.unsafe_get b (pos + i))

(* [Pj_util.Bytecodec.crc32] over a mapped region, so checksumming it
   never copies it onto the heap. *)
let crc32 b ~pos ~len =
  check b pos len "crc range";
  let table = Pj_util.Bytecodec.crc_table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let byte = Char.code (Bigarray.Array1.unsafe_get b i) in
    c := table.((!c lxor byte) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)
