"""Reference implementations kept only as differential test oracles."""
