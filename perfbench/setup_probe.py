"""Set-up probe: one fresh interpreter going from nothing to ready.

Run as ``python3 setup_probe.py ROOT FILE...``.  It imports dspn from
``ROOT/src``, opens each input file once on its own (so slow ``open()``
calls show apart from parsing), parses the ``.seqs`` and ``.hmm`` files,
and loads the ``.dspn`` model without checks and then verifies it, which
is the work ``load_model(strict=True)`` does.  It prints one JSON line of
in-process timings; the caller times the whole process from spawn to exit.
"""

import json
import os
import sys
import time

t_start = time.perf_counter()
root, files = sys.argv[1], sys.argv[2:]
sys.path.insert(0, os.path.join(root, "src"))
import dspn  # noqa: E402
from dspn import data, dynamic  # noqa: E402

out = {"import_s": time.perf_counter() - t_start}
opens = []
for path in files:
    t0 = time.perf_counter()
    open(path, "rb").close()
    opens.append(time.perf_counter() - t0)
out["open_ms_max"] = max(opens) * 1e3

parse_s = model_s = verify_s = 0.0
slices = 0
for path in files:
    t0 = time.perf_counter()
    if path.endswith(".seqs"):
        ds = data.load_dataset(path)
        slices += sum(ds.lengths())
        parse_s += time.perf_counter() - t0
    elif path.endswith(".hmm"):
        data.load_hmm(path)
        parse_s += time.perf_counter() - t0
    elif path.endswith(".dspn"):
        model = data.load_model(path, strict=False)
        t1 = time.perf_counter()
        model_s += t1 - t0
        report = dynamic.verify_model_validity(model)
        verify_s += time.perf_counter() - t1
        if not report.ok:
            sys.exit(f"{path}: model failed verification")
out.update(parse_s=parse_s, model_s=model_s, verify_s=verify_s,
           slices=slices, ready_s=time.perf_counter() - t_start,
           dspn_file=os.path.abspath(dspn.__file__))
print(json.dumps(out))
