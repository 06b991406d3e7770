"""Seeded generator of multi-TU C-subset projects with planted violations.

`generate(workload, seed)` returns a `Project`: the file texts, the list of
translation units, the input line count and a manifest of planted
violations `(path, line, guideline, certainty)`. The same seed gives
byte-identical files. Nothing here imports `ccomply`: the answers come from
the generator's own knowledge of what it planted, not from the analyser.

Line counting follows the benchmark's definition: a line of a `.c` file
counts once, a header line counts once per TU that includes it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

ALL_RULES = (
    "R1.3", "R2.1", "R2.2", "R8.13", "R9.1", "R11.4", "R12.2",
    "R13.1", "R13.2", "R13.5", "R14.1", "R14.2", "R14.3", "R17.2",
)
SYSTEM_RULES = ("R17.2",)
# Rules that read no data-flow facts (AST scope), plus the system rule.
AST_RULES = ("R8.13", "R11.4", "R13.1", "R13.2", "R13.5", "R14.1", "R14.2", "R17.2")


@dataclass(frozen=True)
class Workload:
    kind: str  # "project" or "header"
    rules: tuple[str, ...]


WORKLOADS = {
    "project_all_rules": Workload("project", ALL_RULES),
    "project_ast_rules": Workload("project", AST_RULES),
    "header_heavy": Workload("header", ALL_RULES),
}

TU_COUNT = 100


@dataclass(frozen=True)
class Plant:
    path: str
    line: int
    guideline: str
    certainty: str | None  # None: the guideline's tests assert no certainty


@dataclass
class Project:
    files: dict[str, str]  # relative path -> text, in emission order
    tus: list[str]
    lines: int
    plants: list[Plant]


class _File:
    """A file under construction; a trailing `@GID[:certainty]` marks a plant."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.lines: list[str] = []
        self.plants: list[Plant] = []

    def add(self, *lines: str) -> None:
        for line in lines:
            code, sep, mark = line.partition("  @")
            self.lines.append(code if sep else line)
            if sep:
                gid, _, cert = mark.partition(":")
                self.plants.append(Plant(self.path, len(self.lines), gid, cert or None))

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


# Planted violations, one template per unambiguous case of the checker tests.
# `{fn}` is replaced by a unique function name.
PLANT_TEMPLATES = {
    "R1.3": [
        ("void {fn}(void) {",
         '    char *p = "String";',
         "    p[0] = 'X';  @R1.3:definite",
         "}"),
        ("void {fn}(void) {",
         '    char *p = "abc";',
         "    *p = 'x';  @R1.3:definite",
         "}"),
    ],
    "R2.1": [
        ("void {fn}(void) {",
         "    return;",
         "    use(1);  @R2.1:definite",
         "}"),
        ("void {fn}(void) {",
         "    while (1) {",
         "        (void)get();",
         "    }",
         "    use(1);  @R2.1:definite",
         "}"),
    ],
    "R2.2": [
        ("void {fn}(void) {",
         "    int32_t x;",
         "    x = 1;  @R2.2",
         "    x = 2;",
         "    use(x);",
         "}"),
        ("void {fn}(int32_t a, int32_t b) {",
         "    a * b;  @R2.2:definite",
         "    use(a);",
         "}"),
    ],
    "R8.13": [
        ("void {fn}(int32_t *p) {  @R8.13:definite",
         "    use(*p);",
         "}"),
        ("void {fn}(int32_t *p) {  @R8.13",
         "    usecp(p);",
         "}"),
    ],
    "R9.1": [
        ("void {fn}(void) {",
         "    int32_t x;",
         "    use(x);  @R9.1:definite",
         "}"),
        ("void {fn}(int32_t a) {",
         "    int32_t x;",
         "    if (a) {",
         "        x = 1;",
         "    }",
         "    if (a) {",
         "        use(x);  @R9.1:definite",
         "    }",
         "}"),
        ("void {fn}(void) {",
         "    int32_t x;",
         "    int32_t *p = &x;",
         "    fill(p);",
         "    use(x);  @R9.1:caution",
         "}"),
    ],
    "R11.4": [
        ("void {fn}(void) {",
         "    int32_t *p = (int32_t *)0x4000;  @R11.4",
         "    usep(p);",
         "}"),
        ("void {fn}(int32_t x) {",
         "    usep(x);  @R11.4:definite",
         "}"),
    ],
    "R12.2": [
        ("void {fn}(void) {",
         "    uint32_t v = 1u;",
         "    v = v << 32;  @R12.2:definite",
         "    useu(v);",
         "}"),
        ("void {fn}(uint32_t i, uint32_t n) {",
         "    if (n <= 40u) {",
         "        useu(i << n);  @R12.2:caution",
         "    }",
         "}"),
        ("void {fn}(int32_t x) {",
         "    use(x << -1);  @R12.2:definite",
         "}"),
    ],
    "R13.1": [
        ("void {fn}(int32_t i) {",
         "    int32_t x = i++;  @R13.1:definite",
         "    use(x);",
         "    use(i);",
         "}"),
        ("void {fn}(void) {",
         "    int32_t x = get();  @R13.1:definite",
         "    use(x);",
         "}"),
    ],
    "R13.2": [
        ("void {fn}(int32_t i) {",
         "    i = i++ + 1;  @R13.2:definite",
         "    use(i);",
         "}"),
        ("void {fn}(void) {",
         "    take(g1(), g2());  @R13.2:definite",
         "}"),
        ("void {fn}(int32_t i) {",
         "    use((i = 1) + i);  @R13.2:definite",
         "}"),
    ],
    "R13.5": [
        ("void {fn}(int32_t a) {",
         "    if (a && get()) {  @R13.5:definite",
         "        use(a);",
         "    }",
         "}"),
        ("void {fn}(int32_t a, int32_t b) {",
         "    if (a || (b = 1)) {  @R13.5:definite",
         "        use(b);",
         "    }",
         "}"),
    ],
    "R14.1": [
        ("void {fn}(void) {",
         "    int32_t s = 0;",
         "    for (float x = 0; x < 1; x += 0.1f) {  @R14.1",
         "        s++;",
         "    }",
         "    use(s);",
         "}"),
    ],
    "R14.2": [
        ("void {fn}(int32_t n) {",
         "    int32_t i;",
         "    int32_t j;",
         "    for (i = 0, j = 0; i < n; ++i) {  @R14.2",
         "        use(j);",
         "    }",
         "}"),
        ("void {fn}(void) {",
         "    for (;;) {  @R14.2",
         "        break;",
         "    }",
         "}"),
    ],
    "R14.3": [
        ("void {fn}(void) {",
         "    uint8_t u = get();",
         "    if (u < 256) {  @R14.3",
         "        use(1);",
         "    }",
         "}"),
        ("void {fn}(void) {",
         "    if (0) {  @R14.3",
         "        use(1);",
         "    }",
         "}"),
    ],
}

# Externals the plants and filler call; every TU sees them through proj.h.
_PRELUDE = (
    "extern void use(int32_t v);",
    "extern void useu(uint32_t v);",
    "extern void usep(int32_t *p);",
    "extern void usecp(const int32_t *p);",
    "extern void fill(int32_t *p);",
    "extern int32_t get(void);",
    "extern int32_t g1(void);",
    "extern int32_t g2(void);",
    "extern void take(int32_t a, int32_t b);",
)


def generate(workload: str, seed: int) -> Project:
    kind = WORKLOADS[workload].kind
    rng = random.Random(f"{workload}:{seed}" if kind == "header" else f"project:{seed}")
    files = _gen_header_project(rng) if kind == "header" else _gen_project(rng)
    tus = [f.path for f in files if f.path.endswith(".c")]
    texts = {f.path: f.text() for f in files}
    lines = 0
    for f in files:
        if f.path.endswith(".c"):
            lines += texts[f.path].count("\n")
            for inc in _includes(f):
                lines += texts[inc].count("\n")
    rules = set(WORKLOADS[workload].rules)
    plants = [p for f in files for p in f.plants if p.guideline in rules]
    return Project(texts, tus, lines, plants)


def _includes(f: _File) -> list[str]:
    """Quoted includes of a file; generated headers include nothing."""
    return [line.split('"')[1] for line in f.lines if line.startswith("#include")]


def _plant_schedule(rng: random.Random, count: int) -> list[tuple[str, ...]]:
    """`count` plant templates; every template is used about equally often."""
    pool = [t for _, ts in sorted(PLANT_TEMPLATES.items()) for t in ts]
    out: list[tuple[str, ...]] = []
    while len(out) < count:
        batch = list(pool)
        rng.shuffle(batch)
        out.extend(batch)
    return out[:count]


def _emit_plants(f: _File, plants, prefix: str) -> None:
    for i, template in enumerate(plants):
        f.add("")
        f.add(*(line.replace("{fn}", f"{prefix}_p{i}") for line in template))


# ---- project workloads --------------------------------------------------

_PROJ_H = (
    "#ifndef PROJ_H",
    "#define PROJ_H",
    "#define LIMIT 1000",
    "#define BIT(n) (1u << (n))",
    "#define CLAMP(x, lo, hi) ((x) < (lo) ? (lo) : ((x) > (hi) ? (hi) : (x)))",
    "#define LO16(x) ((x) & 0xFFFFu)",
    "#define MIX(a, b) (((a) << 3) ^ ((b) >> 2))",
    "typedef int32_t acc_t;",
    "typedef void (*handler_t)(int32_t v);",
) + _PRELUDE + ("#endif",)

_FUNCS_PER_TU = 4
_PLANTS_PER_TU = 2


def _gen_project(rng: random.Random) -> list[_File]:
    files: list[_File] = []
    proj = _File("proj.h")
    proj.add(*_PROJ_H)
    files.append(proj)
    headers: list[_File] = []
    for t in range(TU_COUNT):
        h = _File(f"mod_{t:03d}.h")
        h.add(f"#ifndef MOD_{t:03d}_H", f"#define MOD_{t:03d}_H")
        for k in range(_FUNCS_PER_TU):
            h.add(f"acc_t m{t}_f{k}(acc_t *buf, int32_t n);")
        h.add("#endif")
        headers.append(h)
    files.extend(headers)
    schedule = _plant_schedule(rng, TU_COUNT * _PLANTS_PER_TU)
    for t in range(TU_COUNT):
        f = _File(f"tu_{t:03d}.c")
        f.add(f"/* module {t}: generated */", '#include "proj.h"')
        callees = sorted(rng.sample(range(t), min(t, 2)))
        for c in callees:
            f.add(f'#include "mod_{c:03d}.h"')
        f.add("", f"static acc_t state_{t}[8];")
        # Planted cross-TU recursion: rec{t}_a here calls rec{t}_b in the next TU.
        if t % 10 == 1 and t + 1 < TU_COUNT:
            f.add(f"extern void rec{t}_b(int32_t n);", "")
            f.add(f"void rec{t}_a(int32_t n) {{  @R17.2:definite",
                  "    if (n > 0) {",
                  f"        rec{t}_b(n - 1);",
                  "    }",
                  "}")
        if t % 10 == 2:
            f.add(f"extern void rec{t - 1}_a(int32_t n);", "")
            f.add(f"void rec{t - 1}_b(int32_t n) {{  @R17.2:definite",
                  "    if (n > 0) {",
                  f"        rec{t - 1}_a(n - 1);",
                  "    }",
                  "}")
        if t % 10 == 5:
            f.add("",
                  f"static int32_t fact{t}(int32_t n) {{  @R17.2:definite",
                  "    if (n <= 1) {",
                  "        return 1;",
                  "    }",
                  f"    return n * fact{t}(n - 1);",
                  "}")
        for k in range(_FUNCS_PER_TU):
            f.add("")
            _emit_loop_function(f, rng, t, k, callees)
        _emit_plants(f, schedule[t * _PLANTS_PER_TU:(t + 1) * _PLANTS_PER_TU], f"m{t}")
        files.append(f)
    return files


def _emit_loop_function(f: _File, rng: random.Random, t: int, k: int, callees: list[int]) -> None:
    f.add(f"acc_t m{t}_f{k}(acc_t *buf, int32_t n) {{",
          "    acc_t acc = n;",
          "    int32_t i;",
          "    int32_t j;")
    blocks = [_blk_for, _blk_while, _blk_switch, _blk_deref, _blk_shift_loop, _blk_do]
    for blk in rng.sample(blocks, 2):
        blk(f, rng, t)
    if callees:
        c = rng.choice(callees)
        f.add(f"    acc = acc + m{c}_f{rng.randrange(_FUNCS_PER_TU)}(buf, n - 1);")
    if rng.random() < 0.25:
        f.add("    handler_t cb = use;",
              "    cb(acc);  @R17.2:caution")
    f.add(f"    state_{t}[{k}] = acc;",
          "    return acc;",
          "}")


def _blk_for(f: _File, rng: random.Random, t: int) -> None:
    sh = rng.randrange(1, 5)
    f.add("    for (i = 0; i < n; i++) {",
          f"        acc = CLAMP(acc + (buf[i] >> {sh}), -LIMIT, LIMIT);",
          "    }")


def _blk_while(f: _File, rng: random.Random, t: int) -> None:
    sh = rng.randrange(1, 8)
    f.add("    j = n;",
          "    while (j > 0) {",
          f"        acc = acc ^ (j << {sh});",
          "        j = j - 1;",
          "    }")


def _blk_switch(f: _File, rng: random.Random, t: int) -> None:
    a, b = rng.randrange(1, 9), rng.randrange(2, 5)
    f.add("    switch (acc & 3) {",
          "    case 0:",
          f"        acc = acc + {a};",
          "        break;",
          "    case 1:",
          f"        acc = acc * {b};",
          "        break;",
          "    default:",
          "        acc = LO16(acc);",
          "        break;",
          "    }")


def _blk_deref(f: _File, rng: random.Random, t: int) -> None:
    f.add("    if (n > 0) {",
          "        *buf = acc;",
          f"        acc = acc + *buf + state_{t}[{rng.randrange(8)}];",
          "    }")


def _blk_shift_loop(f: _File, rng: random.Random, t: int) -> None:
    hi = rng.randrange(8, 32)
    f.add(f"    for (i = 0; i < {hi}; i++) {{",
          "        if ((acc & BIT(i)) != 0) {",
          "            acc = MIX(acc, i);",
          "        }",
          "    }")


def _blk_do(f: _File, rng: random.Random, t: int) -> None:
    f.add("    i = 0;",
          "    do {",
          f"        acc = acc + (i * {rng.randrange(2, 7)});",
          "        i++;",
          "    } while (i < n);")


# ---- header-heavy workload ---------------------------------------------

_PERIPHERALS = ("UART", "SPI", "I2C", "TIM", "GPIO", "ADC", "DMA", "CAN")
_REGISTERS = ("CR", "SR", "DR", "CFG")
_INSTANCES = 2
# Fixed, so that every seed gives a header of the same size: the TU latency
# tail is set by full GC collections, whose number follows the heap's growth.
_FIELDS_PER_REGISTER = 3


def _gen_header_project(rng: random.Random) -> list[_File]:
    h = _File("regs.h")
    h.add("#ifndef REGS_H", "#define REGS_H",
          "#define REGS_HAVE_DMA 1",
          "#define SET_BITS(x, m) ((x) | (m))",
          "#define CLR_BITS(x, m) ((x) & ~(m))",
          "#define FIELD_GET(r, m, s) (((r) & (m)) >> (s))",
          "#define FIELD_PREP(m, s, v) ((((uint32_t)(v)) << (s)) & (m))",
          "#define REG_PTR(a) ((volatile uint32_t *)(a))",
          *_PRELUDE)
    fields: dict[tuple[str, str], list[str]] = {}
    for p_idx, periph in enumerate(_PERIPHERALS):
        guard = periph == "DMA"
        if guard:
            h.add("#if defined(REGS_HAVE_DMA) && REGS_HAVE_DMA")
        h.add(f"#define {periph}_BASE 0x{0x40000000 + p_idx * 0x1000:08X}u",
              f"typedef uint32_t {periph.lower()}_reg_t;")
        for reg in _REGISTERS:
            pos = 0
            flist = []
            for fi in range(_FIELDS_PER_REGISTER):
                width = rng.randrange(1, 5)
                name = f"{periph}_{reg}_F{fi}"
                h.add(f"#define {name}_SHIFT {pos}u",
                      f"#define {name}_MASK (0x{(1 << width) - 1:X}u << {name}_SHIFT)")
                flist.append(name)
                pos += width + rng.randrange(0, 3)
            fields[(periph, reg)] = flist
            for inst in range(_INSTANCES):
                h.add(f"extern volatile uint32_t {periph}{inst}_{reg};")
        for inst in range(_INSTANCES):
            h.add(f"void {periph.lower()}{inst}_init(void);",
                  f"uint32_t {periph.lower()}{inst}_status(void);")
        if guard:
            h.add("#endif")
    h.add("#endif")
    files = [h]
    schedule = _plant_schedule(rng, TU_COUNT)
    for t in range(TU_COUNT):
        f = _File(f"drv_{t:03d}.c")
        f.add(f"/* peripheral module {t}: generated */", '#include "regs.h"')
        for k in range(3):
            periph = rng.choice(_PERIPHERALS)
            inst = rng.randrange(_INSTANCES)
            f.add("", f"void drv{t}_f{k}(uint32_t v) {{", "    uint32_t x;")
            for _ in range(2):
                reg, reg2 = rng.choice(_REGISTERS), rng.choice(_REGISTERS)
                name = rng.choice(fields[(periph, reg)])
                name2 = rng.choice(fields[(periph, reg)])
                f.add(f"    x = FIELD_GET(v, {name}_MASK, {name}_SHIFT);",
                      f"    x = SET_BITS(x, {name2}_MASK);",
                      f"    x = CLR_BITS(x, {name}_MASK);",
                      f"    {periph}{inst}_{reg} = FIELD_PREP({name2}_MASK, {name2}_SHIFT, x);",
                      f"    useu({periph}{inst}_{reg2} & {name}_MASK);")
            f.add("}")
        f.add("", f"void drv{t}_raw(void) {{",
              f"    volatile uint32_t *reg = REG_PTR({_PERIPHERALS[t % len(_PERIPHERALS)]}_BASE);  @R11.4",
              "    *reg = 0u;",
              "}")
        _emit_plants(f, schedule[t:t + 1], f"drv{t}")
        files.append(f)
    return files
