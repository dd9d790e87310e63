#include "server/protocol.hh"

#include <cstring>

namespace lp::server
{

namespace
{

void
put8(std::vector<std::uint8_t> &out, std::uint8_t v)
{
    out.push_back(v);
}

void
put32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
put64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t
get32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
get64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** Patch the length field once the payload size is known. */
void
fixupLen(std::vector<std::uint8_t> &out, std::size_t lenAt)
{
    const std::uint32_t len =
        static_cast<std::uint32_t>(out.size() - lenAt - 4);
    for (int i = 0; i < 4; ++i)
        out[lenAt + i] = static_cast<std::uint8_t>(len >> (8 * i));
}

/**
 * Common framing checks. Returns NeedMore/Malformed, or Ok with
 * @p payload / @p len pointing at the complete payload.
 */
Decode
frame(const std::uint8_t *buf, std::size_t n, const std::uint8_t *&payload,
      std::size_t &len, std::size_t &consumed)
{
    if (n < 4)
        return Decode::NeedMore;
    len = get32(buf);
    if (len < 9 || len > maxFrameBytes)
        return Decode::Malformed;  // every payload has op + id
    if (n < 4 + len)
        return Decode::NeedMore;
    payload = buf + 4;
    consumed = 4 + len;
    return Decode::Ok;
}

} // namespace

void
encodeRequest(const Request &r, std::vector<std::uint8_t> &out)
{
    const std::size_t lenAt = out.size();
    put32(out, 0);
    put8(out, static_cast<std::uint8_t>(r.op));
    put64(out, r.id);
    switch (r.op) {
      case Op::Get:
      case Op::Del:
        put64(out, r.key);
        break;
      case Op::Put:
        put64(out, r.key);
        put64(out, r.value);
        break;
      case Op::Batch:
        put32(out, static_cast<std::uint32_t>(r.batch.size()));
        for (const BatchOp &b : r.batch) {
            put8(out, static_cast<std::uint8_t>(b.isPut ? Op::Put
                                                        : Op::Del));
            put64(out, b.key);
            if (b.isPut)
                put64(out, b.value);
        }
        break;
      case Op::Scan:
        put64(out, r.key);
        put32(out, r.limit);
        break;
      case Op::Txn:
        put32(out, static_cast<std::uint32_t>(r.txn.size()));
        for (const TxnOp &t : r.txn) {
            put8(out, static_cast<std::uint8_t>(t.kind));
            put64(out, t.key);
            if (t.kind == TxnOp::Kind::Put ||
                t.kind == TxnOp::Kind::Add)
                put64(out, t.value);
        }
        break;
      case Op::Shutdown:
      case Op::Metrics:
        break;
    }
    fixupLen(out, lenAt);
}

void
encodeResponse(const Response &r, std::vector<std::uint8_t> &out)
{
    const std::size_t lenAt = out.size();
    put32(out, 0);
    put8(out, static_cast<std::uint8_t>(r.status));
    put64(out, r.id);
    if (r.hasValue)
        put64(out, r.value);
    for (const char c : r.body)
        put8(out, static_cast<std::uint8_t>(c));
    fixupLen(out, lenAt);
}

Decode
decodeRequest(const std::uint8_t *buf, std::size_t n,
              std::size_t &consumed, Request &out)
{
    const std::uint8_t *p = nullptr;
    std::size_t len = 0;
    const Decode d = frame(buf, n, p, len, consumed);
    if (d != Decode::Ok)
        return d;

    out = Request{};
    out.op = static_cast<Op>(p[0]);
    out.id = get64(p + 1);
    switch (out.op) {
      case Op::Get:
      case Op::Del:
        if (len != 17)
            return Decode::Malformed;
        out.key = get64(p + 9);
        return Decode::Ok;
      case Op::Put:
        if (len != 25)
            return Decode::Malformed;
        out.key = get64(p + 9);
        out.value = get64(p + 17);
        return Decode::Ok;
      case Op::Batch: {
        if (len < 13)
            return Decode::Malformed;
        const std::uint32_t count = get32(p + 9);
        if (count > maxBatchOps)
            return Decode::Malformed;
        std::size_t at = 13;
        out.batch.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            if (at + 9 > len)
                return Decode::Malformed;
            const Op sub = static_cast<Op>(p[at]);
            if (sub != Op::Put && sub != Op::Del)
                return Decode::Malformed;
            BatchOp b;
            b.isPut = sub == Op::Put;
            b.key = get64(p + at + 1);
            at += 9;
            if (b.isPut) {
                if (at + 8 > len)
                    return Decode::Malformed;
                b.value = get64(p + at);
                at += 8;
            } else {
                b.value = 0;
            }
            out.batch.push_back(b);
        }
        if (at != len)
            return Decode::Malformed;  // trailing garbage
        return Decode::Ok;
      }
      case Op::Scan:
        if (len != 21)
            return Decode::Malformed;
        out.key = get64(p + 9);
        out.limit = get32(p + 17);
        // A zero limit asks for nothing and a huge one asks for more
        // than any response frame may carry: both are protocol
        // violations, rejected here so the server never sees them.
        if (out.limit == 0 || out.limit > maxScanRecords)
            return Decode::Malformed;
        return Decode::Ok;
      case Op::Txn: {
        if (len < 13)
            return Decode::Malformed;
        const std::uint32_t count = get32(p + 9);
        if (count == 0 || count > maxTxnOps)
            return Decode::Malformed;
        std::size_t at = 13;
        out.txn.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            if (at + 9 > len)
                return Decode::Malformed;
            const auto kind = static_cast<TxnOp::Kind>(p[at]);
            if (kind != TxnOp::Kind::Get &&
                kind != TxnOp::Kind::Put &&
                kind != TxnOp::Kind::Del && kind != TxnOp::Kind::Add)
                return Decode::Malformed;
            TxnOp t;
            t.kind = kind;
            t.key = get64(p + at + 1);
            at += 9;
            if (kind == TxnOp::Kind::Put ||
                kind == TxnOp::Kind::Add) {
                if (at + 8 > len)
                    return Decode::Malformed;
                t.value = get64(p + at);
                at += 8;
            }
            out.txn.push_back(t);
        }
        if (at != len)
            return Decode::Malformed;  // trailing garbage
        return Decode::Ok;
      }
      case Op::Shutdown:
      case Op::Metrics:
        if (len != 9)
            return Decode::Malformed;
        return Decode::Ok;
    }
    return Decode::Malformed;  // unknown opcode
}

Decode
decodeResponse(const std::uint8_t *buf, std::size_t n,
               std::size_t &consumed, Response &out)
{
    const std::uint8_t *p = nullptr;
    std::size_t len = 0;
    const Decode d = frame(buf, n, p, len, consumed);
    if (d != Decode::Ok)
        return d;

    out = Response{};
    const std::uint8_t status = p[0];
    if (status > static_cast<std::uint8_t>(Status::Aborted))
        return Decode::Malformed;
    out.status = static_cast<Status>(status);
    out.id = get64(p + 1);
    if (len == 17 && out.status == Status::Ok) {
        out.hasValue = true;
        out.value = get64(p + 9);
        return Decode::Ok;
    }
    if (len > 9) {
        // Any other payload is an opaque body (METRICS text,
        // SCAN/TXN binary).
        out.body.assign(reinterpret_cast<const char *>(p + 9), len - 9);
    }
    return Decode::Ok;
}

std::string
encodeScanBody(const std::vector<ScanRecord> &records)
{
    std::vector<std::uint8_t> buf;
    buf.reserve(4 + 16 * records.size());
    put32(buf, static_cast<std::uint32_t>(records.size()));
    for (const ScanRecord &r : records) {
        put64(buf, r.key);
        put64(buf, r.value);
    }
    return std::string(reinterpret_cast<const char *>(buf.data()),
                       buf.size());
}

bool
decodeScanBody(const std::string &body, std::vector<ScanRecord> &out)
{
    out.clear();
    if (body.size() < 4)
        return false;
    const auto *p = reinterpret_cast<const std::uint8_t *>(body.data());
    const std::uint32_t count = get32(p);
    if (count > maxScanRecords ||
        body.size() != 4 + std::size_t(count) * 16)
        return false;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        ScanRecord r;
        r.key = get64(p + 4 + std::size_t(i) * 16);
        r.value = get64(p + 4 + std::size_t(i) * 16 + 8);
        out.push_back(r);
    }
    return true;
}

std::string
encodeTxnReadsBody(const std::vector<TxnRead> &reads)
{
    std::vector<std::uint8_t> buf;
    buf.reserve(4 + 9 * reads.size());
    put32(buf, static_cast<std::uint32_t>(reads.size()));
    for (const TxnRead &r : reads) {
        put8(buf, r.found ? 1 : 0);
        put64(buf, r.value);
    }
    return std::string(reinterpret_cast<const char *>(buf.data()),
                       buf.size());
}

bool
decodeTxnReadsBody(const std::string &body, std::vector<TxnRead> &out)
{
    out.clear();
    if (body.size() < 4)
        return false;
    const auto *p = reinterpret_cast<const std::uint8_t *>(body.data());
    const std::uint32_t count = get32(p);
    if (count > maxTxnOps ||
        body.size() != 4 + std::size_t(count) * 9)
        return false;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint8_t found = p[4 + std::size_t(i) * 9];
        if (found > 1)
            return false;
        TxnRead r;
        r.found = found == 1;
        r.value = get64(p + 4 + std::size_t(i) * 9 + 1);
        out.push_back(r);
    }
    return true;
}

std::string
statusName(Status s)
{
    switch (s) {
      case Status::Ok:       return "ok";
      case Status::NotFound: return "not-found";
      case Status::Retry:    return "retry";
      case Status::Err:      return "err";
      case Status::Fault:    return "fault";
      case Status::Aborted:  return "aborted";
    }
    return "?";
}

} // namespace lp::server
