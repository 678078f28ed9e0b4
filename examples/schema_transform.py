#!/usr/bin/env python
"""Schema-to-schema document transformation at scale.

The paper's motivating use case (§3.2): "XSLT transformation is used to
transform a set of XML documents conforming to schema S1 to another XML
documents conforming to schema S2 ... defined by different organizations."

Here: purchase orders stored object-relationally under schema S1
(order/customer/lines/line) are converted to a partner's S2 shape
(invoice/client/items) — for thousands of stored documents, with the
rewrite turning the whole conversion into one relational query.

Run:  python examples/schema_transform.py [doc_count]
"""

import sys
import time

from repro import Engine, TransformOptions
from repro.rdb import Database, INT
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document

S1_DTD = """
<!ELEMENT order (orderno, customer, lines)>
<!ELEMENT orderno (#PCDATA)>
<!ELEMENT customer (cname, country)>
<!ELEMENT cname (#PCDATA)>
<!ELEMENT country (#PCDATA)>
<!ELEMENT lines (line*)>
<!ELEMENT line (sku, qty, price)>
<!ELEMENT sku (#PCDATA)>
<!ELEMENT qty (#PCDATA)>
<!ELEMENT price (#PCDATA)>
"""

# S1 -> S2: rename elements, hoist the customer, keep only lines with a
# total above a threshold, add computed line totals.
CONVERT = """<?xml version="1.0"?><xsl:stylesheet version="1.0"
 xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="order">
<invoice ref="{orderno}">
<client><xsl:value-of select="customer/cname"/>
 (<xsl:value-of select="customer/country"/>)</client>
<items><xsl:apply-templates select="lines/line[qty &gt; 5]"/></items>
<grand><xsl:value-of select="sum(lines/line/price)"/></grand>
</invoice>
</xsl:template>
<xsl:template match="line">
<item sku="{sku}"><xsl:value-of select="qty * price"/></item>
</xsl:template>
</xsl:stylesheet>"""


def make_order(index):
    lines = "".join(
        "<line><sku>S%03d</sku><qty>%d</qty><price>%d</price></line>"
        % (line, (index + line) % 12, 10 + (line * 7) % 90)
        for line in range(6)
    )
    return parse_document(
        "<order><orderno>O%05d</orderno>"
        "<customer><cname>Customer %d</cname><country>%s</country></customer>"
        "<lines>%s</lines></order>"
        % (index, index, ["DE", "FR", "JP", "US"][index % 4], lines)
    )


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    db = Database()
    storage = ObjectRelationalStorage(
        db, schema_from_dtd(S1_DTD), "orders",
        column_types={"qty": INT, "price": INT},
    )
    print("loading %d purchase orders into object-relational storage..."
          % count)
    for index in range(count):
        storage.load(make_order(index))
    storage.create_value_index("qty")

    engine = Engine(db)
    start = time.perf_counter()
    rewritten = engine.transform(storage, CONVERT)
    rewrite_seconds = time.perf_counter() - start

    start = time.perf_counter()
    functional = engine.transform(
        storage, CONVERT, options=TransformOptions(strategy="functional"))
    functional_seconds = time.perf_counter() - start

    print()
    print("first converted document (S2 shape):")
    print(rewritten.serialized_rows()[0])
    print()
    print("strategy            :", rewritten.strategy)
    print("documents converted :", len(rewritten.rows))
    print("outputs identical   :",
          rewritten.serialized_rows() == functional.serialized_rows())
    print("rewrite time        : %.4fs  %r"
          % (rewrite_seconds, rewritten.stats))
    print("functional time     : %.4fs  %r"
          % (functional_seconds, functional.stats))
    print("speedup             : %.1fx"
          % (functional_seconds / rewrite_seconds))


if __name__ == "__main__":
    main()
