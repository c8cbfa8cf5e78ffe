#include "trace/event_source.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>
#include <vector>

#include "support/strings.hh"
#include "trace/fault_injection.hh"
#include "trace/mapped_file.hh"
#include "trace/shard.hh"

namespace tc {

namespace {

bool
parseId(const std::string &text, std::int64_t &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtoll(text.c_str(), &end, 10);
    return end != nullptr && *end == '\0' && out >= 0 &&
           out <= std::numeric_limits<std::int32_t>::max();
}

bool
parseOp(const std::string &text, OpType &out)
{
    if (text == "r") {
        out = OpType::Read;
    } else if (text == "w") {
        out = OpType::Write;
    } else if (text == "acq") {
        out = OpType::Acquire;
    } else if (text == "rel") {
        out = OpType::Release;
    } else if (text == "fork") {
        out = OpType::Fork;
    } else if (text == "join") {
        out = OpType::Join;
    } else if (text == "tcreate") {
        out = OpType::ThreadCreate;
    } else if (text == "tjoin") {
        out = OpType::ThreadJoin;
    } else if (text == "tretire") {
        out = OpType::ThreadRetire;
    } else {
        return false;
    }
    return true;
}

/** Bytes from the read position of @p is to its end, or UINT64_MAX
 * when the stream cannot seek (a pipe). Leaves the position as it
 * was. */
std::uint64_t
bytesLeft(std::istream &is)
{
    const std::istream::pos_type here = is.tellg();
    if (here == std::istream::pos_type(-1))
        return UINT64_MAX;
    std::uint64_t left = UINT64_MAX;
    const auto end = is.seekg(0, std::ios::end).tellg();
    if (end != std::istream::pos_type(-1))
        left = static_cast<std::uint64_t>(end - here);
    is.clear();
    is.seekg(here);
    return left;
}

/** Streaming reader over the text format: one line in memory at a
 * time, header parsed eagerly so info() is valid upfront. */
class TextEventSource final : public EventSource
{
  public:
    explicit TextEventSource(std::istream &is)
        : is_(&is), start_(is.tellg())
    {
        parseHeader();
    }

    /** Owning variant over an opened file stream. */
    TextEventSource(std::unique_ptr<std::istream> owned)
        : owned_(std::move(owned)), is_(owned_.get()),
          start_(is_->tellg())
    {
        parseHeader();
    }

    SourceInfo info() const override { return info_; }

    bool
    next(Event &out) override
    {
        if (failed())
            return false;
        std::string line;
        while (std::getline(*is_, line)) {
            line_++;
            const std::string text = trimString(line);
            if (text.empty() || text[0] == '#')
                continue;
            return parseEventLine(text, out);
        }
        // getline fails on both EOF and I/O errors; only the
        // former is a clean end of stream.
        if (is_->bad()) {
            fail(line_, "I/O error while reading trace",
                 SourceErrorKind::Io);
        }
        return false;
    }

    bool
    rewind() override
    {
        // Back to where the stream stood at construction (byte 0
        // for files; borrowed streams may start mid-stream).
        is_->clear();
        if (!is_->seekg(start_))
            return false;
        line_ = 0;
        clearError();
        parseHeader();
        return !failed();
    }

  private:
    void
    parseHeader()
    {
        std::string line;
        while (std::getline(*is_, line)) {
            line_++;
            const std::string text = trimString(line);
            if (text.empty() || text[0] == '#') {
                // The v2 writer stamps a version comment before the
                // header; v1 files have no such line. Purely a
                // reservation hint — hand-written v2 files without
                // it still parse (and analyze) correctly.
                if (text.rfind("# treeclock trace v", 0) == 0 &&
                    text != "# treeclock trace v1")
                    info_.lifecycle = true;
                continue;
            }
            std::istringstream ls(text);
            std::string kw_threads, kw_locks, kw_vars;
            std::int64_t k = 0, nl = 0, nv = 0;
            if (!(ls >> kw_threads >> k >> kw_locks >> nl >>
                  kw_vars >> nv) ||
                kw_threads != "threads" || kw_locks != "locks" ||
                kw_vars != "vars" || k < 0 || nl < 0 || nv < 0) {
                fail(line_,
                     "expected header: threads <k> locks <nl> "
                     "vars <nv>");
                return;
            }
            // Header counts are hints that consumers reserve by, so
            // promise no more ids than the event lines after the
            // header can name: each takes at least 6 bytes ("0 w 1"
            // and a newline, which the last line may lack). A
            // stream of unknown size promises none; consumers grow
            // past the hints on demand.
            const std::uint64_t bytes = bytesLeft(*is_);
            std::int64_t lines = 0;
            if (bytes != UINT64_MAX)
                lines = static_cast<std::int64_t>(std::min<std::uint64_t>(
                    (bytes + 1) / 6, INT32_MAX));
            info_.threads = static_cast<Tid>(std::min(k, lines));
            info_.locks = static_cast<LockId>(std::min(nl, lines));
            info_.vars = static_cast<VarId>(std::min(nv, lines));
            return;
        }
        fail(line_, "missing header line");
    }

    bool
    parseEventLine(const std::string &text, Event &out)
    {
        std::istringstream ls(text);
        std::string tid_text, op_text, target_text;
        if (!(ls >> tid_text >> op_text >> target_text)) {
            fail(line_, "expected: <tid> <op> <target>");
            return false;
        }
        std::string extra;
        if (ls >> extra) {
            fail(line_, "trailing tokens");
            return false;
        }
        std::int64_t tid = 0, target = 0;
        if (!parseId(tid_text, tid) ||
            !parseId(target_text, target)) {
            fail(line_, "ids must be non-negative integers");
            return false;
        }
        OpType op;
        if (!parseOp(op_text, op)) {
            fail(line_,
                 strFormat("unknown op '%s'", op_text.c_str()));
            return false;
        }
        out = Event(static_cast<Tid>(tid), op,
                    static_cast<std::uint32_t>(target));
        return true;
    }

    std::unique_ptr<std::istream> owned_;
    std::istream *is_;
    std::istream::pos_type start_;
    SourceInfo info_;
    std::size_t line_ = 0;
};

/** v1 magic: formats that predate the lifecycle ops. Readers keep
 * accepting it, bounding op codes at kMaxOpV1 so a v1 file carrying
 * a lifecycle op code is corrupt, not silently reinterpreted. */
constexpr char kMagicV1[6] = {'T', 'C', 'T', 'B', '1', '\0'};
/** v2 magic: same wire layout, op codes up to kMaxOpV2. */
constexpr char kMagicV2[6] = {'T', 'C', 'T', 'B', '2', '\0'};
/** On-wire bytes per event: int32 tid, uint32 target, uint8 op. */
constexpr std::size_t kEventBytes = 9;
/** Bytes of the fixed binary-trace header: magic, 3×u32 id-space
 * bounds, u64 event count. */
constexpr std::size_t kBinaryHeaderBytes =
    sizeof(kMagicV1) + 3 * sizeof(std::uint32_t) +
    sizeof(std::uint64_t);

/**
 * Decode the binary header both readers share from the first @p got
 * bytes of the file at @p d; @p payload counts the bytes after the
 * header (UINT64_MAX when unknown). Returns the error message, or
 * nullptr. Header counts are hints that consumers reserve by, so
 * info promises no more than the bytes can back: events at most the
 * records the payload holds, and each id space at most that many
 * ids (consumers grow past them on demand). The declared event
 * count still drives delivery, so a short file fails as truncated.
 */
const char *
parseBinaryHeader(const unsigned char *d, std::size_t got,
                  std::uint64_t payload, SourceInfo &info,
                  std::uint64_t &declared, std::uint8_t &max_op)
{
    const char *bad_magic = "bad magic (not a treeclock binary trace)";
    if (got < sizeof(kMagicV1))
        return bad_magic;
    if (std::memcmp(d, kMagicV1, sizeof(kMagicV1)) == 0)
        max_op = kMaxOpV1;
    else if (std::memcmp(d, kMagicV2, sizeof(kMagicV2)) == 0)
        max_op = kMaxOpV2;
    else
        return bad_magic;
    if (got < kBinaryHeaderBytes)
        return "truncated header";
    std::uint32_t header[3];
    std::memcpy(header, d + sizeof(kMagicV1), sizeof(header));
    std::memcpy(&declared, d + sizeof(kMagicV1) + sizeof(header),
                sizeof(declared));
    info.events = std::min(declared, payload / kEventBytes);
    auto hint = [&info](std::uint32_t ids) {
        return static_cast<std::int32_t>(
            std::min<std::uint64_t>(ids, info.events));
    };
    info.threads = hint(header[0]);
    info.locks = hint(header[1]);
    info.vars = hint(header[2]);
    // v2 files may carry lifecycle events, so their declared thread
    // count can far exceed the live set — tell consumers to reserve
    // accordingly.
    info.lifecycle = max_op == kMaxOpV2;
    return nullptr;
}

/** The tail both readers' refill() share, once @p got of the
 * @p want bytes of the window after event @p delivered are in: the
 * whole records to deliver, or 0 with @p error set when a record is
 * torn or nothing arrived. */
std::size_t
windowRecords(std::size_t got, std::size_t want, std::uint64_t delivered,
              std::string &error)
{
    if (got < want && got % kEventBytes != 0)
        delivered += got / kEventBytes;
    else if (got >= kEventBytes)
        return got / kEventBytes;
    error = strFormat("truncated event stream at event %llu",
                      static_cast<unsigned long long>(delivered));
    return 0;
}

/** Streaming reader over the binary format: refills a fixed window
 * of raw event records per bulk read, so memory use is O(window)
 * regardless of file size. */
class BinaryEventSource final : public EventSource
{
  public:
    BinaryEventSource(std::istream &is, std::size_t window)
        : is_(&is), start_(is.tellg()),
          window_(window == 0 ? 1 : window)
    {
        parseHeader();
    }

    BinaryEventSource(std::unique_ptr<std::istream> owned,
                      std::size_t window)
        : owned_(std::move(owned)), is_(owned_.get()),
          start_(is_->tellg()), window_(window == 0 ? 1 : window)
    {
        parseHeader();
    }

    SourceInfo info() const override { return info_; }

    bool
    next(Event &out) override
    {
        if (failed())
            return false;
        if (bufPos_ >= bufCount_ && !refill())
            return false;
        const unsigned char *p =
            buf_.data() + bufPos_ * kEventBytes;
        std::int32_t tid;
        std::uint32_t target;
        std::memcpy(&tid, p, sizeof(tid));
        std::memcpy(&target, p + 4, sizeof(target));
        const std::uint8_t op = p[8];
        bufPos_++;
        delivered_++;
        if (op > maxOp_) {
            fail(0, "invalid op code");
            return false;
        }
        // Ids are int32 in the event model; reject records a valid
        // writer cannot have produced before they reach consumers.
        if (tid < 0 ||
            target > static_cast<std::uint32_t>(
                         std::numeric_limits<std::int32_t>::max())) {
            fail(0, "event id out of range");
            return false;
        }
        out = Event(static_cast<Tid>(tid),
                    static_cast<OpType>(op), target);
        return true;
    }

    bool
    rewind() override
    {
        is_->clear();
        if (!is_->seekg(start_))
            return false;
        delivered_ = 0;
        bufPos_ = bufCount_ = 0;
        clearError();
        parseHeader();
        return !failed();
    }

    /** Events are fixed-width records after a fixed-width header,
     * so resuming at event n is a single byte seek. */
    bool
    seekToSequence(std::uint64_t n) override
    {
        if (!rewind())
            return false;
        if (n >= declared_) {
            // At or past the end: nothing left to deliver; refill()
            // sees delivered_ >= declared_ and reports end of stream.
            delivered_ = n;
            return true;
        }
        // parseHeader() left the stream at the first record.
        if (!is_->seekg(static_cast<std::streamoff>(n) *
                            static_cast<std::streamoff>(
                                kEventBytes),
                        std::ios::cur))
            return false;
        delivered_ = n;
        return true;
    }

  private:
    void
    parseHeader()
    {
        unsigned char head[kBinaryHeaderBytes];
        is_->read(reinterpret_cast<char *>(head), sizeof(head));
        const auto got = static_cast<std::size_t>(is_->gcount());
        // Payload bytes, when the stream can seek to its end.
        const std::uint64_t payload =
            got == sizeof(head) ? bytesLeft(*is_) : UINT64_MAX;
        if (const char *error = parseBinaryHeader(
                head, got, payload, info_, declared_, maxOp_))
            fail(0, error);
    }

    /** Bulk-read the next window of raw records. */
    bool
    refill()
    {
        if (delivered_ >= declared_)
            return false;
        const std::uint64_t remaining = declared_ - delivered_;
        const std::size_t want = static_cast<std::size_t>(
            remaining < window_ ? remaining : window_);
        buf_.resize(want * kEventBytes);
        is_->read(reinterpret_cast<char *>(buf_.data()),
                  static_cast<std::streamsize>(buf_.size()));
        const auto got = static_cast<std::size_t>(is_->gcount());
        std::string error;
        bufCount_ = windowRecords(got, buf_.size(), delivered_, error);
        bufPos_ = 0;
        if (bufCount_ == 0)
            fail(0, error);
        return bufCount_ != 0;
    }

    std::unique_ptr<std::istream> owned_;
    std::istream *is_;
    std::istream::pos_type start_;
    SourceInfo info_;
    std::uint64_t declared_ = 0; ///< header event count
    std::size_t window_;
    std::uint8_t maxOp_ = kMaxOpV1;
    std::vector<unsigned char> buf_;
    std::size_t bufPos_ = 0;
    std::size_t bufCount_ = 0;
    std::uint64_t delivered_ = 0;
};

/**
 * Zero-copy reader over a mapped binary trace: same windowed
 * delivery, validation order and error text as BinaryEventSource —
 * including which window a torn tail fails in — but records decode
 * straight out of the mapping (no read syscalls, no private raw
 * buffer) and the whole window validates in one table-dispatched
 * pass through read(). seekToSequence() is pure offset arithmetic.
 */
class MappedBinaryEventSource final : public EventSource
{
  public:
    MappedBinaryEventSource(std::unique_ptr<MappedFile> map,
                            std::size_t window)
        : map_(std::move(map)), window_(window == 0 ? 1 : window)
    {
        parseHeader();
    }

    SourceInfo info() const override { return info_; }

    bool
    next(Event &out) override
    {
        if (failed())
            return false;
        if (bufPos_ >= bufCount_ && !refill())
            return false;
        const std::size_t got = decodeRun(&out, 1);
        return got == 1;
    }

    /** The batched hot drain: decode and validate the rest of the
     * current window in one pass per iteration. */
    std::size_t
    read(Event *out, std::size_t max) override
    {
        if (failed())
            return 0;
        std::size_t n = 0;
        while (n < max) {
            if (bufPos_ >= bufCount_ && !refill())
                break;
            const std::size_t take =
                std::min(max - n, bufCount_ - bufPos_);
            const std::size_t good = decodeRun(out + n, take);
            n += good;
            if (good < take)
                break; // fail() recorded by decodeRun
        }
        return n;
    }

    bool
    rewind() override
    {
        delivered_ = 0;
        bufPos_ = bufCount_ = 0;
        clearError();
        parseHeader();
        return !failed();
    }

    /** No stream to reposition: resuming at event n is arithmetic
     * on delivered_; the next refill computes its span from it. */
    bool
    seekToSequence(std::uint64_t n) override
    {
        if (!rewind())
            return false;
        delivered_ = n;
        return true;
    }

  private:
    void
    parseHeader()
    {
        const std::size_t size = map_->size();
        if (const char *error = parseBinaryHeader(
                map_->data(), size,
                size > kBinaryHeaderBytes ? size - kBinaryHeaderBytes
                                          : 0,
                info_, declared_, maxOp_)) {
            fail(0, error);
            return;
        }
        // Validation dispatch table: one byte-indexed load per
        // record instead of a compare against the format version.
        for (std::size_t op = 0; op < sizeof(opValid_); op++)
            opValid_[op] = op <= maxOp_;
    }

    /** The windowing half of the stream reader's refill(), with the
     * read() replaced by bounds arithmetic against the mapping —
     * same window spans, same truncation positions and messages. */
    bool
    refill()
    {
        if (delivered_ >= declared_)
            return false;
        const std::uint64_t remaining = declared_ - delivered_;
        const std::size_t want = static_cast<std::size_t>(
            remaining < window_ ? remaining : window_);
        const std::size_t wantBytes = want * kEventBytes;
        const std::uint64_t consumed =
            kBinaryHeaderBytes + delivered_ * kEventBytes;
        const std::size_t avail =
            map_->size() > consumed
                ? static_cast<std::size_t>(map_->size() - consumed)
                : 0;
        std::string error;
        bufCount_ = windowRecords(std::min(wantBytes, avail),
                                  wantBytes, delivered_, error);
        bufPos_ = 0;
        if (bufCount_ == 0)
            fail(0, error);
        return bufCount_ != 0;
    }

    /** Decode @p take records of the current window into @p out in
     * one pass. Returns how many validated; on a bad record the
     * prefix is delivered, the cursor has consumed the bad record
     * (mirroring the stream reader's advance-then-validate order)
     * and fail() is set. */
    std::size_t
    decodeRun(Event *out, std::size_t take)
    {
        const unsigned char *p = map_->data() +
                                 kBinaryHeaderBytes +
                                 delivered_ * kEventBytes;
        for (std::size_t i = 0; i < take;
             i++, p += kEventBytes) {
            std::int32_t tid;
            std::uint32_t target;
            std::memcpy(&tid, p, sizeof(tid));
            std::memcpy(&target, p + 4, sizeof(target));
            const std::uint8_t op = p[8];
            bufPos_++;
            delivered_++;
            if (!opValid_[op]) {
                fail(0, "invalid op code");
                return i;
            }
            if (tid < 0 ||
                target >
                    static_cast<std::uint32_t>(
                        std::numeric_limits<
                            std::int32_t>::max())) {
                fail(0, "event id out of range");
                return i;
            }
            out[i] = Event(static_cast<Tid>(tid),
                           static_cast<OpType>(op), target);
        }
        return take;
    }

    std::unique_ptr<MappedFile> map_;
    SourceInfo info_;
    std::uint64_t declared_ = 0; ///< header event count
    std::size_t window_;
    std::uint8_t maxOp_ = kMaxOpV1;
    bool opValid_[256] = {};
    std::size_t bufPos_ = 0;
    std::size_t bufCount_ = 0;
    std::uint64_t delivered_ = 0;
};

/** A source that failed before its stream existed (bad path). */
class FailedSource final : public EventSource
{
  public:
    FailedSource(std::string message, SourceErrorKind kind)
    {
        fail(0, std::move(message), kind);
    }
    SourceInfo info() const override { return {}; }
    bool next(Event &) override { return false; }
    bool rewind() override { return false; }
};

/** The makeValidatingSource decorator. */
class ValidatingEventSource final : public EventSource
{
  public:
    explicit ValidatingEventSource(std::unique_ptr<EventSource> inner)
        : inner_(std::move(inner))
    {
        mirrorError();
    }

    SourceInfo info() const override { return inner_->info(); }

    bool
    next(Event &out) override
    {
        if (failed())
            return false;
        if (!inner_->next(out)) {
            mirrorError();
            return false;
        }
        return passes(&out, 1);
    }

    EventWindow
    readWindow(std::vector<Event> &storage,
               std::size_t max) override
    {
        if (failed())
            return {};
        const EventWindow window = inner_->readWindow(storage, max);
        if (window.empty())
            mirrorError();
        if (!passes(window.data, window.size))
            return {};
        return window;
    }

    bool
    rewind() override
    {
        if (!inner_->rewind())
            return false;
        validator_.reset();
        clearError();
        mirrorError();
        return !failed();
    }

  private:
    /** Validate @p n events; on a violation fail the source so the
     * caller withholds them all. */
    bool
    passes(const Event *events, std::size_t n)
    {
        if (validator_.add(events, n) == n)
            return true;
        const ValidationResult &v = validator_.result();
        fail(0,
             strFormat("malformed trace at event %zu: %s",
                       v.eventIndex, v.message.c_str()),
             SourceErrorKind::Invalid);
        return false;
    }

    void
    mirrorError()
    {
        if (inner_->failed() && !failed()) {
            fail(inner_->errorLine(), inner_->error(),
                 inner_->errorKind());
        }
    }

    std::unique_ptr<EventSource> inner_;
    TraceValidator validator_;
};

} // namespace

std::unique_ptr<EventSource>
makeTextEventSource(std::istream &is)
{
    return std::make_unique<TextEventSource>(is);
}

std::unique_ptr<EventSource>
makeBinaryEventSource(std::istream &is, std::size_t window)
{
    return std::make_unique<BinaryEventSource>(is, window);
}

std::unique_ptr<EventSource>
makeValidatingSource(std::unique_ptr<EventSource> inner)
{
    return std::make_unique<ValidatingEventSource>(std::move(inner));
}

std::unique_ptr<EventSource>
makeFailedSource(std::string message, SourceErrorKind kind)
{
    return std::make_unique<FailedSource>(std::move(message), kind);
}

bool
useMappedIo(IoMode io)
{
    // Armed fault injection streams everything: the source.next
    // decorator and the stream-path I/O faults then behave
    // identically whatever --io asked for (positions, messages,
    // exit codes — the fault-parity differential leg pins it).
    return io != IoMode::Stream && mmapSupported() &&
           !FailpointRegistry::instance().anyArmed();
}

std::unique_ptr<EventSource>
openTraceFile(const std::string &path, std::size_t window,
              std::size_t mergeWorkers, IoMode io)
{
    if (isShardPath(path))
        return openShardMember(path, window, mergeWorkers, io);
    const bool binary =
        path.size() >= 4 &&
        path.compare(path.size() - 4, 4, ".tcb") == 0;
    if (binary && useMappedIo(io)) {
        if (auto map = MappedFile::map(path)) {
            return std::make_unique<MappedBinaryEventSource>(
                std::move(map), window);
        }
        // Unmappable (pipe, special file): stream it below.
    }
    auto is = std::make_unique<std::ifstream>(
        path, binary ? std::ios::binary : std::ios::in);
    if (!*is) {
        return makeFailedSource(
            strFormat("cannot open '%s'", path.c_str()));
    }
    if (binary) {
        return std::make_unique<BinaryEventSource>(std::move(is),
                                                   window);
    }
    return std::make_unique<TextEventSource>(std::move(is));
}

} // namespace tc
