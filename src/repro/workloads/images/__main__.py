"""``python -m repro.workloads.images``: rebuild every program image."""

import sys

from repro.workloads.images import main

sys.exit(main())
