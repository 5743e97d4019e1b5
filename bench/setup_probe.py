"""Set-up a CLI user pays on every call: import the CLI, load the input files.

Usage: python3 bench/setup_probe.py FILE...   (with the package on PYTHONPATH)
Prints {"import_s": ..., "load_s": ...} measured inside this interpreter.
"""

import json
import sys
import time

start = time.perf_counter()
import drawdown_risk.cli  # noqa: E402,F401

imported = time.perf_counter()
from drawdown_risk import market_bridge, trade_core  # noqa: E402

for path in sys.argv[1:]:
    if market_bridge.is_market_file(path):
        market_bridge.build_trade_matrix(market_bridge.load_market(path))
    else:
        trade_core.load_trade_matrix(path)
loaded = time.perf_counter()
print(json.dumps({"import_s": imported - start, "load_s": loaded - imported}))
